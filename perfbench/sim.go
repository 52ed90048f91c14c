package main

// The three simulated workloads. Each round regenerates its inputs
// from the seed and runs them end to end, so a round's wall clock is
// what a researcher waits for one experiment, set-up included.
//
// Untraced rounds go through the entry points users call (core.Run,
// core.Testbed, controller.Controller). Traced rounds make the same
// public calls core.Run makes, one span per call, so the per-layer
// costs are measured from outside the program; they must reproduce the
// untraced results exactly.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/flowsim"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
	"repro/internal/workload"
)

// simResult is what one round reports besides its host costs.
type simResult struct {
	checked
	// loop is the summed simulation time proper: RunResult.Wall for
	// packet runs (the event loop), flowsim.Run for flow runs.
	loop time.Duration
	// runs is the summed elapsed time of the core.Run calls (untraced).
	runs time.Duration
	// events counts engine events (packet) or flowsim recomputes (flow),
	// with the traced run's sampler events excluded.
	events                   int64
	pkts, drops, pauses, ecn int64

	// maxDev is the largest SDT-vs-full-testbed ACT deviation (mpi-sdt).
	maxDev float64
	// deployMs is each topology's Controller.Deploy wall time.
	deployMs map[string]float64
	entries  int64

	// Traced rounds only.
	rules                   int64
	pendSum, pendN, pendMax int64
	// post holds per-layer microbenchmarks on the round's own inputs;
	// the traced run calls them after its measured rounds.
	post []func(tr *tracer, s samples)
}

// hop is one forwarding decision on a flow's path, replayed by the
// FIB lookup microbenchmark.
type hop struct{ sw, inPort, dst, tag int }

// sampler samples the engine's pending-event count every period of
// simulated time until the workload completes. Its own events are
// counted so they can be excluded from the engine's event count.
type sampler struct {
	sum, n, max, fired int64
}

const samplePeriod = 20 * netsim.Microsecond

func (s *sampler) arm(net *netsim.Network, done func() bool) {
	var tick func(at netsim.Time)
	tick = func(at netsim.Time) {
		net.Sim.At(at, func() {
			s.fired++
			p := int64(net.Sim.Pending())
			if done() || p == 0 {
				return
			}
			s.sum += p
			s.n++
			if p > s.max {
				s.max = p
			}
			tick(at + samplePeriod)
		})
	}
	tick(samplePeriod)
}

// ---------------------------------------------------------------------
// websearch-pkt and websearch-flow

// websearch runs open-loop Poisson web-search flows on a fat-tree.
type websearch struct {
	seed     int64
	k        int // fat-tree arity
	flows    int // flows offered (packet: the byte budget in mean-size flows)
	fidelity core.Fidelity
	cfg      netsim.Config
}

// websearchScale shrinks the web-search sizes to keep packet runs short.
const websearchScale = 0.25

func newWebsearchPkt(seed int64) *websearch {
	cfg := netsim.DefaultConfig()
	cfg.PFC = true
	cfg.ECN = true
	cfg.CC = netsim.CCDCQCN
	return &websearch{seed: seed, k: 8, flows: 8000, fidelity: core.Packet, cfg: cfg}
}

func newWebsearchFlow(seed int64) *websearch {
	return &websearch{seed: seed, k: 24, flows: 4096, fidelity: core.Flow, cfg: netsim.DefaultConfig()}
}

// schedule draws the seeded flow schedule. At packet fidelity the cost
// of a run grows with the bytes offered, and the heavy-tailed size
// distribution makes the total of a fixed flow count vary by several
// percent between seeds; the schedule is therefore cut at a fixed byte
// budget (flows × mean size), so every seed offers the same bytes.
func (w *websearch) schedule(tr *tracer, ranks int) ([]netsim.Flow, error) {
	sizes := loadgen.ScaleSizes(loadgen.WebSearch(), websearchScale)
	spec := loadgen.Spec{
		Ranks: ranks, Pattern: loadgen.Uniform(), Sizes: sizes,
		Load: 0.6, Flows: w.flows, Seed: w.seed, LinkBps: w.cfg.LinkBps,
	}
	if w.fidelity == core.Packet {
		spec.Flows = 2 * w.flows
	}
	var fs *loadgen.FlowSet
	err := tr.do("loadgen.generate", func() (err error) {
		fs, err = spec.Generate()
		return err
	})
	if err != nil {
		return nil, err
	}
	if w.fidelity == core.Flow {
		return fs.Flows, nil
	}
	budget := int64(float64(w.flows) * sizes.Mean())
	var sum int64
	for i, f := range fs.Flows {
		if sum += int64(f.Bytes); sum > budget {
			return fs.Flows[:i], nil
		}
	}
	return nil, fmt.Errorf("websearch: %d flows offer less than the %d-byte budget", len(fs.Flows), budget)
}

func (w *websearch) round(ctx context.Context, tr *tracer) (*simResult, error) {
	r := &simResult{checked: checked{digest: newDigest()}}
	var g *topology.Graph
	if err := tr.do("topology.build", func() error {
		g = topology.FatTree(w.k)
		return g.Validate()
	}); err != nil {
		return nil, err
	}
	hosts := g.Hosts()
	flows, err := w.schedule(tr, len(hosts))
	if err != nil {
		return nil, err
	}
	var delivered []int64 // per rank, packet fidelity only
	var act netsim.Time
	switch {
	case tr == nil:
		tb := &core.Testbed{Cfg: w.cfg}
		var opts []core.Option
		if w.fidelity == core.Packet {
			opts = append(opts, core.WithObserver(core.Hooks{Finish: func(_ *core.RunResult, net *netsim.Network) {
				delivered = deliveredBytes(net, hosts)
			}}))
		}
		t0 := time.Now()
		res, err := core.Run(ctx, tb, core.Scenario{Topo: g, Flows: flows, Hosts: hosts, Mode: core.FullTestbed, Fidelity: w.fidelity}, opts...)
		r.runs = time.Since(t0)
		if err != nil {
			return nil, err
		}
		act, r.loop, r.events = res.ACT, res.Wall, res.Events
		r.drops, r.pauses, r.ecn = res.Drops, res.Pauses, res.EcnMarks
	case w.fidelity == core.Flow:
		if act, err = w.tracedFlow(ctx, tr, r, g, hosts, flows); err != nil {
			return nil, err
		}
	default:
		if act, delivered, err = w.tracedPacket(tr, r, g, hosts, flows); err != nil {
			return nil, err
		}
	}
	var rep *telemetry.FCTReport
	_ = tr.do("telemetry.fct", func() error {
		rep = telemetry.MeasureFCT(flows, w.cfg.LinkBps, 0, nil)
		return nil
	})
	r.ops = 1
	w.check(r, flows, delivered, rep)
	r.digest.add(int64(act))
	for i := range flows {
		r.digest.add(int64(flows[i].FCT()))
	}
	return r, nil
}

// check applies the output checks: every flow completed, and at packet
// fidelity every rank received exactly the bytes sent to it.
func (w *websearch) check(r *simResult, flows []netsim.Flow, delivered []int64, rep *telemetry.FCTReport) {
	if rep.Completed != len(flows) {
		r.fail("%d of %d flows completed", rep.Completed, len(flows))
		return
	}
	for i := range flows {
		if f := &flows[i]; !f.Completed || f.End < f.Start {
			r.fail("flow %d not completed", i)
			return
		}
	}
	if delivered == nil {
		return
	}
	want := make([]int64, len(delivered))
	for _, f := range flows {
		want[f.Dst] += int64(f.Bytes)
	}
	for rank := range want {
		if want[rank] != delivered[rank] {
			r.fail("rank %d received %d bytes, %d sent to it", rank, delivered[rank], want[rank])
			return
		}
	}
}

func deliveredBytes(net *netsim.Network, hosts []int) []int64 {
	out := make([]int64, len(hosts))
	for i, h := range hosts {
		out[i] = net.Host(h).DeliveredBytes
	}
	return out
}

// tracedPacket replicates core.Run's packet path for a FullTestbed
// flows scenario: Strategy.Compute → Routes.Prime → NewNetwork →
// NewFlowApp → Start → Sim.Run.
func (w *websearch) tracedPacket(tr *tracer, r *simResult, g *topology.Graph, hosts []int, flows []netsim.Flow) (netsim.Time, []int64, error) {
	var routes *routing.Routes
	if err := tr.do("routing.compute", func() (err error) {
		routes, err = routing.ForTopology(g).Compute(g)
		return err
	}); err != nil {
		return 0, nil, err
	}
	r.rules = int64(len(routes.Rules))
	_ = tr.do("routing.fib_compile", func() error { routes.Prime(); return nil })
	var net *netsim.Network
	if err := tr.do("netsim.build", func() (err error) {
		net, err = netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), w.cfg, nil, false)
		return err
	}); err != nil {
		return 0, nil, err
	}
	var app *netsim.FlowApp
	_ = tr.do("netsim.app", func() error { app = netsim.NewFlowApp(net, hosts, flows, nil); return nil })
	var s sampler
	s.arm(net, func() bool { return app.ACT() >= 0 })
	_ = tr.do("netsim.start", func() error { app.Start(); return nil })
	_ = tr.do("engine.run", func() error { net.Sim.Run(0); return nil })
	r.events = net.Sim.Events() - s.fired
	r.pendSum, r.pendN, r.pendMax = s.sum, s.n, s.max
	r.pkts, r.drops, r.pauses, r.ecn = net.DeliveredPkt, net.TotalDrops, net.PausesSent, net.EcnMarks
	act := app.ACT()
	if act < 0 {
		return 0, nil, fmt.Errorf("websearch: traced run did not complete")
	}
	r.post = append(r.post, func(_ *tracer, s samples) {
		s.add("routing.fib_ns_per_lookup", fibNsPerLookup(routes.FIB(), flowHops(routes, hosts, flows, 2000)))
	})
	return act, deliveredBytes(net, hosts), nil
}

// tracedFlow replicates core.Run's flow-fidelity path: a route subset
// toward the receiving hosts (routing.DstComputer), then flowsim.Run.
func (w *websearch) tracedFlow(ctx context.Context, tr *tracer, r *simResult, g *topology.Graph, hosts []int, flows []netsim.Flow) (netsim.Time, error) {
	seen := map[int]bool{}
	var dsts []int
	for _, f := range flows {
		if !seen[f.Dst] {
			seen[f.Dst] = true
			dsts = append(dsts, hosts[f.Dst])
		}
	}
	var routes *routing.Routes
	if err := tr.do("routing.compute", func() (err error) {
		routes, err = routing.ForTopology(g).(routing.DstComputer).ComputeFor(g, dsts)
		return err
	}); err != nil {
		return 0, err
	}
	r.rules = int64(len(routes.Rules))
	var res *flowsim.Result
	if err := tr.do("flowsim.run", func() (err error) {
		res, err = flowsim.Run(ctx, g, routes, w.cfg, hosts, flows)
		return err
	}); err != nil {
		return 0, err
	}
	r.events = res.Recomputes
	return res.ACT, nil
}

// flowHops expands up to max flows' paths into the (switch, in-port,
// dst, tag) lookups a packet makes, walking Routes.TracePath's switch
// sequence.
func flowHops(routes *routing.Routes, hosts []int, flows []netsim.Flow, max int) []hop {
	g := routes.Topo
	fib := routes.FIB()
	var out []hop
	for i := 0; i < len(flows) && i < max; i++ {
		src, dst := hosts[flows[i].Src], hosts[flows[i].Dst]
		path, err := routes.TracePath(src, dst)
		if err != nil || len(path) == 0 {
			continue
		}
		prev, tag := src, 0
		for _, sw := range path {
			in := g.Edges[g.EdgeBetween(prev, sw)].PortAt(sw)
			out = append(out, hop{sw, in, dst, tag})
			if _, nt, ok := fib.Forward(sw, in, dst, tag); ok {
				tag = nt
			}
			prev = sw
		}
	}
	return out
}

// ---------------------------------------------------------------------
// mpi-sdt

// mpiSDT is the paper's Table IV workflow: one testbed cabled for three
// topologies; per topology, read the JSON config, deploy, replay two
// MPI traces in SDT mode and on the full testbed, tear down.
type mpiSDT struct {
	seed    int64
	configs [][]byte
	apps    []string
	ranks   int
}

// topologyFiles are the mpi-sdt topology configs, read at start-up.
var topologyFiles = []string{"fattree-k4.json", "dragonfly-4-9-2-1.json", "torus2d-5x5.json"}

func newMPISDT(seed int64, dir string) (*mpiSDT, error) {
	w := &mpiSDT{seed: seed, apps: []string{"HPCG", "IMB"}, ranks: 16}
	for _, f := range topologyFiles {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		w.configs = append(w.configs, b)
	}
	return w, nil
}

// placement draws the seeded rank→host placement for one topology: a
// permutation of the ranks over the spread of hosts core.Run places a
// trace on by default. The same placement serves both modes, as in the
// paper.
func (w *mpiSDT) placement(g *topology.Graph, topoIdx int) []int {
	spread := core.PickSpread(g.Hosts(), w.ranks)
	perm := loadgen.NewRNG(w.seed*1000 + int64(topoIdx)).Perm(len(spread))
	hosts := make([]int, len(spread))
	for i := range hosts {
		hosts[i] = spread[perm[i]]
	}
	return hosts
}

// sdtTolerance is the paper's SDT-vs-full-testbed ACT agreement.
const sdtTolerance = 0.02

func (w *mpiSDT) round(ctx context.Context, tr *tracer) (*simResult, error) {
	r := &simResult{checked: checked{digest: newDigest()}, deployMs: map[string]float64{}}
	graphs := make([]*topology.Graph, len(w.configs))
	for i, b := range w.configs {
		if err := tr.do("topology.build", func() error {
			c, err := topology.ReadConfig(bytes.NewReader(b))
			if err != nil {
				return err
			}
			graphs[i], err = c.Build()
			return err
		}); err != nil {
			return nil, err
		}
	}
	var tb *core.Testbed
	if err := tr.do("core.testbed", func() (err error) {
		tb, err = core.PaperTestbed(graphs)
		return err
	}); err != nil {
		return nil, err
	}
	traces := map[string]*workload.Trace{}
	for ti, g := range graphs {
		hosts := w.placement(g, ti)
		var dep *controller.Deployment
		t0 := time.Now()
		if err := tr.do("controller.deploy", func() (err error) {
			dep, err = tb.Ctl.Deploy(g, controller.Options{})
			return err
		}); err != nil {
			return nil, err
		}
		r.deployMs[g.Name] = millis(time.Since(t0))
		r.entries += int64(dep.Entries)
		if tr != nil {
			cab, k, routes := tb.Ctl.Cabling, dep.Plan.Parts.K, dep.Routes
			r.post = append(r.post, func(tr *tracer, _ samples) { tracedControlPlane(tr, g, cab, k, routes) })
		}
		for _, app := range w.apps {
			tr0 := traces[app]
			if tr0 == nil {
				if err := tr.do("workload.trace", func() (err error) {
					tr0, err = workload.ByName(app, w.ranks)
					return err
				}); err != nil {
					return nil, err
				}
				traces[app] = tr0
			}
			want := expectedRecv(tr0)
			var acts [2]netsim.Time
			for mi, mode := range []core.Mode{core.FullTestbed, core.SDT} {
				act, delivered, err := w.run(ctx, tr, r, tb, g, dep, tr0, hosts, mode)
				if err != nil {
					return nil, err
				}
				r.ops++
				acts[mi] = act
				for rank := range want {
					if delivered[rank] != want[rank] {
						r.fail("%s on %s (%s): rank %d received %d bytes, %d sent to it",
							app, g.Name, mode, rank, delivered[rank], want[rank])
						break
					}
				}
				r.digest.add(int64(act))
			}
			dev := math.Abs(float64(acts[1]-acts[0])) / float64(acts[0])
			r.maxDev = max(r.maxDev, dev)
			if dev > sdtTolerance {
				r.fail("%s on %s: SDT ACT %d deviates %.2f%% from the full testbed's %d",
					app, g.Name, acts[1], 100*dev, acts[0])
			}
		}
		if err := tr.do("controller.teardown", func() error { return tb.Ctl.Teardown(g.Name) }); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// expectedRecv is the payload each rank of a trace receives.
func expectedRecv(t *workload.Trace) []int64 {
	want := make([]int64, t.Ranks)
	for _, prog := range t.Programs {
		for _, op := range prog {
			if op.Kind == netsim.OpSend {
				want[op.Peer] += int64(op.Bytes)
			}
		}
	}
	return want
}

// run executes one trace in one mode and returns its ACT and the bytes
// each rank received.
func (w *mpiSDT) run(ctx context.Context, tr *tracer, r *simResult, tb *core.Testbed, g *topology.Graph,
	dep *controller.Deployment, t *workload.Trace, hosts []int, mode core.Mode) (netsim.Time, []int64, error) {
	if tr == nil {
		var delivered []int64
		t0 := time.Now()
		res, err := core.Run(ctx, tb, core.Scenario{Topo: g, Trace: t, Hosts: hosts, Mode: mode},
			core.WithObserver(core.Hooks{Finish: func(_ *core.RunResult, net *netsim.Network) {
				delivered = deliveredBytes(net, hosts)
			}}))
		r.runs += time.Since(t0)
		if err != nil {
			return 0, nil, err
		}
		r.loop += res.Wall
		r.events += res.Events
		r.drops += res.Drops
		r.pauses += res.Pauses
		r.ecn += res.EcnMarks
		return res.ACT, delivered, nil
	}
	// Traced: the calls core.Run makes. SDT mode forwards on the live
	// deployment's routes; the full testbed computes its own.
	var net *netsim.Network
	strat := routing.ForTopology(g)
	if mode == core.SDT {
		if err := tr.do("netsim.build", func() (err error) {
			net, _, err = tb.Network(g, strat, mode)
			return err
		}); err != nil {
			return 0, nil, err
		}
	} else {
		var routes *routing.Routes
		if err := tr.do("routing.compute", func() (err error) {
			routes, err = strat.Compute(g)
			return err
		}); err != nil {
			return 0, nil, err
		}
		r.rules += int64(len(routes.Rules))
		_ = tr.do("routing.fib_compile", func() error { routes.Prime(); return nil })
		if err := tr.do("netsim.build", func() (err error) {
			net, err = netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), tb.Cfg, nil, false)
			return err
		}); err != nil {
			return 0, nil, err
		}
	}
	var app *netsim.App
	_ = tr.do("netsim.app", func() error { app = netsim.NewApp(net, hosts, t.Programs, nil); return nil })
	var s sampler
	s.arm(net, func() bool { return app.ACT() >= 0 })
	_ = tr.do("netsim.start", func() error { app.Start(); return nil })
	_ = tr.do("engine.run", func() error { net.Sim.Run(0); return nil })
	r.events += net.Sim.Events() - s.fired
	r.pendSum += s.sum
	r.pendN += s.n
	if s.max > r.pendMax {
		r.pendMax = s.max
	}
	r.pkts += net.DeliveredPkt
	r.drops += net.TotalDrops
	r.pauses += net.PausesSent
	r.ecn += net.EcnMarks
	act := app.ACT()
	if act < 0 {
		return 0, nil, fmt.Errorf("mpi-sdt: traced %s on %s (%s) did not complete", t.Name, g.Name, mode)
	}
	return act, deliveredBytes(net, hosts), nil
}

// tracedControlPlane times the control-plane steps Controller.Deploy
// performs — partition.Cut, projection.Project and
// projection.CompileFlowTables — re-run on the deployment's own inputs
// after the round, so they break deploy_ms down without inflating it.
func tracedControlPlane(tr *tracer, g *topology.Graph, cab *projection.Cabling, k int, routes *routing.Routes) {
	_ = tr.do("partition.cut", func() error {
		_, err := partition.Cut(g, k, partition.Options{})
		return err
	})
	var plan *projection.Plan
	if err := tr.do("projection.project", func() (err error) {
		plan, err = projection.Project(g, cab, partition.Options{})
		return err
	}); err != nil {
		return
	}
	_ = tr.do("projection.compile", func() error {
		_, err := projection.CompileFlowTables(plan, routes, projection.CompileOptions{})
		return err
	})
}
