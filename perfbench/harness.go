package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"repro/internal/core"
)

// simRounder is one simulated workload: a round regenerates its inputs
// from the seed and runs them; tr is nil for an untraced round.
type simRounder interface {
	round(ctx context.Context, tr *tracer) (*simResult, error)
}

// minRounds is the fewest measured rounds a run reports medians over,
// however long a round takes.
const minRounds = 3

// measureSim is the untraced run: one warm-up round, then measured
// rounds until the budget is spent. Every round must reproduce the
// warm-up's simulated results, and those must match the digest
// recorded for the seed, if any.
func measureSim(ctx context.Context, w simRounder, rep *report, budget time.Duration, want string) error {
	ref, err := w.round(ctx, nil)
	if err != nil {
		return err
	}
	refDigest := ref.digest.String()
	ref.check(rep, refDigest, want)
	s := samples{}
	err = rounds(budget, func() error {
		var res *simResult
		m, err := measured(func() (err error) {
			res, err = w.round(ctx, nil)
			return err
		})
		if err != nil {
			return err
		}
		res.check(rep, refDigest, "")
		s.add("wall_s", seconds(m.wall))
		s.add("setup_s", seconds(m.wall-res.loop))
		s.add("cpu_s", seconds(m.cpu))
		s.add("alloc_mb", m.allocMB)
		s.add("events", float64(res.events))
		return nil
	})
	if err != nil {
		return err
	}
	for _, n := range []string{"wall_s", "setup_s", "cpu_s"} {
		rep.set(n, "s", median(s[n]), len(s[n]))
	}
	rep.set("alloc_mb", "MB", median(s["alloc_mb"]), len(s["alloc_mb"]))
	rep.info("events_per_round", "count", median(s["events"]), len(s["events"]))
	if ref.maxDev > 0 {
		rep.info("sdt_act_max_dev", "ratio", ref.maxDev, ref.ops/2)
	}
	rep.note("result digest %s", ref.digest)
	return nil
}

// checked is the outcome of one round's output checks.
type checked struct {
	ops, failed int
	failures    []string
	digest      *digest // of the simulated results
}

func (c *checked) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// check counts a round's operations and failures into rep. A round
// whose simulated results differ from the reference round's, or from
// the digest recorded for the seed (want, if any), fails.
func (c *checked) check(rep *report, ref, want string) {
	got := c.digest.String()
	if want != "" && got != want {
		c.fail("result digest %s differs from the recorded %s", got, want)
	}
	if got != ref {
		c.fail("result digest %s differs from the reference round's %s", got, ref)
	}
	rep.count(c.ops, min(c.failed, c.ops), c.failures)
}

// rounds calls fn until the budget is spent, and at least minRounds
// times.
func rounds(budget time.Duration, fn func() error) error {
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < budget; n++ {
		if err := fn(); err != nil {
			return err
		}
	}
	return nil
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	return err
}

// setupCalls are the spans that replicate the calls core.Run makes
// before its event loop starts; core.overhead_ms is the part of
// core.Run's set-up (its elapsed time outside RunResult.Wall) they
// leave.
var setupCalls = []string{"routing.compute", "routing.fib_compile", "netsim.build", "netsim.app"}

// tracedSim alternates untraced and traced rounds under a CPU profile.
// Traced rounds must reproduce the untraced results exactly (events,
// ACT, result digest); per-layer metrics come from their spans.
func tracedSim(ctx context.Context, w simRounder, rep *report, budget time.Duration, want, name string, seed int64) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	ref, err := w.round(ctx, nil) // warm-up
	if err != nil {
		return err
	}
	refDigest := ref.digest.String()
	ref.check(rep, refDigest, want)
	tr := newTracer()
	s := samples{}
	var pendSum, pendN, pendMax int64
	type post struct {
		run int
		fn  func(*tracer, samples)
	}
	var posts []post
	err = profiled(base+".cpu.pprof", func() error {
		return rounds(budget, func() error {
			var plain, traced *simResult
			mp, err := measured(func() (err error) {
				plain, err = w.round(ctx, nil)
				return err
			})
			if err != nil {
				return err
			}
			plain.check(rep, refDigest, "")
			tr.nextRun()
			mt, err := measured(func() (err error) {
				traced, err = w.round(ctx, tr)
				return err
			})
			if err != nil {
				return err
			}
			if traced.events != plain.events {
				traced.fail("traced run fired %d events, untraced %d", traced.events, plain.events)
			}
			traced.check(rep, refDigest, "")
			for _, p := range traced.post {
				posts = append(posts, post{tr.run, p})
			}
			s.add("wall.plain", seconds(mp.wall))
			s.add("wall.traced", seconds(mt.wall))
			if calls := tr.perRun(setupCalls...); len(calls) > 0 {
				s.add("core.overhead_ms", millis(plain.runs-plain.loop)-calls[len(calls)-1])
			}
			s.add("gc.cycles", float64(mp.gcCycles))
			s.add("gc.pause_ms", millis(mp.gcPause))
			s.add("routing.rules", float64(traced.rules))
			s.add("projection.entries", float64(plain.entries))
			s.add("netsim.delivered_pkts", float64(traced.pkts))
			s.add("netsim.drops", float64(traced.drops))
			s.add("netsim.pauses", float64(traced.pauses))
			s.add("netsim.ecn_marks", float64(traced.ecn))
			if traced.pkts > 0 {
				s.add("netsim.ns_per_pkt", float64(plain.loop)/float64(traced.pkts))
			}
			if ws, ok := w.(*websearch); ok && ws.fidelity == core.Flow {
				s.add("flowsim.recomputes", float64(plain.events))
			} else if plain.events > 0 {
				s.add("engine.events", float64(plain.events))
				s.add("engine.ns_per_event", float64(plain.loop)/float64(plain.events))
			}
			for topo, ms := range plain.deployMs {
				s.add("controller.deploy_ms."+topo, ms)
			}
			pendSum += traced.pendSum
			pendN += traced.pendN
			pendMax = max(pendMax, traced.pendMax)
			return nil
		})
	})
	if err != nil {
		return err
	}
	// Microbenchmarks on each traced round's inputs, outside the profile.
	for _, p := range posts {
		tr.run = p.run
		p.fn(tr, s)
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return err
	}
	layers := newLayerMetrics()
	for _, n := range []string{
		"topology.build", "routing.compute", "routing.fib_compile", "controller.deploy",
		"controller.teardown", "partition.cut", "projection.project", "projection.compile",
		"loadgen.generate", "workload.trace", "netsim.build", "flowsim.run", "telemetry.fct",
	} {
		layers.setSamples(n+"_ms", tr.perRun(n))
	}
	for n, v := range s {
		if _, ok := layers.m[n]; ok {
			layers.setSamples(n, v)
		}
	}
	if rec := median(s["flowsim.recomputes"]); rec > 0 {
		layers.set("flowsim.us_per_recompute", 1000*median(tr.perRun("flowsim.run"))/rec, len(s["flowsim.recomputes"]))
	}
	if pendN > 0 {
		mean := float64(pendSum) / float64(pendN)
		layers.set("engine.pending_mean", mean, int(pendN))
		layers.set("engine.pending_max", float64(pendMax), int(pendN))
		layers.set("engine.ns_per_event_at_depth", engineNsPerEvent(int(mean+0.5)), 0)
	}
	layers.set("trace.overhead_frac", median(s["wall.traced"])/median(s["wall.plain"])-1, len(s["wall.plain"]))
	if err := layers.cpuShares(base + ".cpu.pprof"); err != nil {
		return err
	}
	layers.into(rep)
	rep.note("spans: %s.spans.json, CPU profile: %s.cpu.pprof", base, base)
	return nil
}
