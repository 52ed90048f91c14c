package main

// sdtd-mix drives the simulation daemon the way `sdtctl -daemon` does:
// an in-process service.Server behind a loopback HTTP server, and two
// closed-loop clients that each wait for a job's result bytes before
// submitting the next. Three of every four submissions resubmit a spec
// the same client completed earlier (a cache read); the fourth is a
// loadgen-incast spec with a fresh seed (a cold job: a packet
// simulation, then a cache write and a disk store).
//
// One round starts a daemon with an empty cache in a fresh directory,
// runs a fixed batch of jobs, and drains it, so every round is the same
// work.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/service"
)

const (
	sdtdClients       = 2
	sdtdJobsPerClient = 16 // one cold job in every four
	sdtdPoll          = time.Millisecond
)

type sdtdMix struct {
	seed int64
	dir  string // parent of the per-round cache directories
}

// jobRecord is one submission as the client saw it.
type jobRecord struct {
	cold            bool
	spec            service.JobSpec
	err             error
	body            []byte
	latency         time.Duration // submit to result bytes
	queueWait, exec time.Duration // from the job's status (cold jobs)
}

type sdtdResult struct {
	checked
	setup time.Duration
	jobs  []jobRecord
	stats service.Stats
}

// coldSpec is client c's i-th cold job: a loadgen-incast spec whose
// seed no other submission of the round uses.
func (w *sdtdMix) coldSpec(c, i int) service.JobSpec {
	return service.JobSpec{Scenario: "loadgen-incast", Seed: w.seed*10000 + int64(c*1000+i) + 1, Workers: 1}
}

func (w *sdtdMix) round(ctx context.Context, tr *tracer) (*sdtdResult, error) {
	r := &sdtdResult{checked: checked{digest: newDigest()}}
	t0 := time.Now()
	dir, err := os.MkdirTemp(w.dir, "cache-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var srv *service.Server
	var hs *httptest.Server
	if err := tr.do("service.setup", func() (err error) {
		if srv, err = service.New(service.Config{Workers: 1, CacheDir: dir}); err != nil {
			return err
		}
		hs = httptest.NewServer(srv.Handler())
		return nil
	}); err != nil {
		return nil, err
	}
	r.setup = time.Since(t0)
	defer hs.Close()

	recs := make([][]jobRecord, sdtdClients)
	tracers := make([]*tracer, sdtdClients)
	var wg sync.WaitGroup
	for c := 0; c < sdtdClients; c++ {
		if tr != nil {
			tracers[c] = &tracer{t0: tr.t0, run: tr.run}
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			recs[c] = w.client(ctx, service.NewClient(hs.URL), c, tracers[c])
		}(c)
	}
	wg.Wait()
	for c := range recs {
		r.jobs = append(r.jobs, recs[c]...)
		if tr != nil {
			tr.merge(tracers[c])
		}
	}
	if r.stats, err = service.NewClient(hs.URL).Stats(ctx); err != nil {
		return nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		return nil, err
	}
	w.check(r)
	return r, nil
}

// client runs one closed loop of submissions. A failed job is recorded
// and the loop goes on.
func (w *sdtdMix) client(ctx context.Context, cl *service.Client, c int, tr *tracer) []jobRecord {
	rng := loadgen.NewRNG(w.seed*100 + int64(c))
	var done []jobRecord // completed cold jobs, resubmitted as hits
	var out []jobRecord
	for i := 0; i < sdtdJobsPerClient; i++ {
		rec := jobRecord{cold: i%4 == 0}
		switch {
		case rec.cold:
			rec.spec = w.coldSpec(c, i/4)
		case len(done) == 0:
			rec.err = errors.New("no completed job to resubmit")
			out = append(out, rec)
			continue
		default:
			rec.spec = done[rng.Intn(len(done))].spec
		}
		rec.err = tr.do("service.job", func() error { return w.job(ctx, cl, &rec, tr) })
		if rec.cold && rec.err == nil {
			done = append(done, rec)
		}
		out = append(out, rec)
	}
	return out
}

// job submits one spec and waits for its result bytes.
func (w *sdtdMix) job(ctx context.Context, cl *service.Client, rec *jobRecord, tr *tracer) error {
	start := time.Now()
	var st service.JobStatus
	if err := tr.do("service.submit", func() (err error) {
		st, err = cl.Submit(ctx, rec.spec)
		return err
	}); err != nil {
		return err
	}
	if !st.State.Terminal() {
		if err := tr.do("service.wait", func() (err error) {
			st, err = cl.Wait(ctx, st.ID, sdtdPoll)
			return err
		}); err != nil {
			return err
		}
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	// A resubmission must not simulate again: it is served from the
	// cache, or adopts the finished job before the daemon retires it.
	if reused := st.Cached || st.Dedup; rec.cold == reused {
		return fmt.Errorf("job %s (seed %d): cold=%v but cached=%v dedup=%v", st.ID, rec.spec.Seed, rec.cold, st.Cached, st.Dedup)
	}
	if err := tr.do("service.result", func() (err error) {
		rec.body, _, err = cl.Result(ctx, st.ID)
		return err
	}); err != nil {
		return err
	}
	rec.latency = time.Since(start)
	if !st.StartedAt.IsZero() {
		rec.queueWait = st.StartedAt.Sub(st.QueuedAt)
		rec.exec = time.Duration(st.WallMs * float64(time.Millisecond))
	}
	return nil
}

// check applies the output checks: every hit returns exactly the bytes
// of the cold run of its spec, and every cold result is a complete
// incast table. The digest covers the cold results in spec order.
func (w *sdtdMix) check(r *sdtdResult) {
	cold := map[int64][]byte{}
	for _, j := range r.jobs {
		r.ops++
		if j.err != nil {
			r.fail("job (seed %d): %v", j.spec.Seed, j.err)
			continue
		}
		if j.cold {
			if len(j.body) == 0 || !bytes.Contains(j.body, []byte("fan-in")) {
				r.fail("cold job seed %d returned an incomplete result (%d bytes)", j.spec.Seed, len(j.body))
			}
			cold[j.spec.Seed] = j.body
		}
	}
	for _, j := range r.jobs {
		if j.err == nil && !j.cold && !bytes.Equal(j.body, cold[j.spec.Seed]) {
			r.fail("hit for seed %d differs from its cold result", j.spec.Seed)
		}
	}
	for c := 0; c < sdtdClients; c++ {
		for i := 0; i < sdtdJobsPerClient/4; i++ {
			s := w.coldSpec(c, i).Seed
			r.digest.add(s)
			r.digest.addBytes(cold[s])
		}
	}
}

// measure is sdtd-mix's untraced run: one warm-up round, then measured
// rounds until the budget is spent.
func (w *sdtdMix) measure(ctx context.Context, rep *report, budget time.Duration, want string) error {
	ref, err := w.round(ctx, nil)
	if err != nil {
		return err
	}
	refDigest := ref.digest.String()
	ref.check(rep, refDigest, want)
	s := samples{}
	var lat latencies
	err = rounds(budget, func() error {
		var res *sdtdResult
		m, err := measured(func() (err error) {
			res, err = w.round(ctx, nil)
			return err
		})
		if err != nil {
			return err
		}
		res.check(rep, refDigest, "")
		s.add("wall_s", seconds(m.wall))
		s.add("setup_s", seconds(res.setup))
		s.add("cpu_s", seconds(m.cpu))
		s.add("alloc_mb", m.allocMB)
		lat.add(res, m.wall)
		return nil
	})
	if err != nil {
		return err
	}
	for _, n := range []string{"wall_s", "setup_s", "cpu_s"} {
		rep.set(n, "s", median(s[n]), len(s[n]))
	}
	rep.set("alloc_mb", "MB", median(s["alloc_mb"]), len(s["alloc_mb"]))
	for _, q := range lat.quantiles() {
		rep.info(q.name, q.unit, q.v, q.n)
	}
	rep.note("result digest %s", ref.digest)
	return nil
}

// latencies pools job latencies by class across rounds.
type latencies struct {
	hit, cold, wait, exec, overhead []float64
	jobs                            int
	busy                            time.Duration
	hits, misses                    []float64
}

func (l *latencies) add(r *sdtdResult, wall time.Duration) {
	for _, j := range r.jobs {
		if j.err != nil {
			continue
		}
		l.jobs++
		if !j.cold {
			l.hit = append(l.hit, millis(j.latency))
			continue
		}
		l.cold = append(l.cold, millis(j.latency))
		l.wait = append(l.wait, millis(j.queueWait))
		l.exec = append(l.exec, millis(j.exec))
		l.overhead = append(l.overhead, millis(j.latency-j.queueWait-j.exec))
	}
	l.busy += wall
	l.hits = append(l.hits, float64(r.stats.Cache.Hits))
	l.misses = append(l.misses, float64(r.stats.Cache.Misses))
}

type quantileMetric struct {
	name, unit string
	v          float64
	n          int
}

// quantiles are the client-side latency metrics: the median and the
// 90th percentile of each job class, and completed jobs per second.
func (l *latencies) quantiles() []quantileMetric {
	return []quantileMetric{
		{"hit_p50_ms", "ms", quantile(l.hit, 0.5), len(l.hit)},
		{"hit_p90_ms", "ms", quantile(l.hit, 0.9), len(l.hit)},
		{"cold_p50_ms", "ms", quantile(l.cold, 0.5), len(l.cold)},
		{"cold_p90_ms", "ms", quantile(l.cold, 0.9), len(l.cold)},
		{"jobs_per_s", "1/s", float64(l.jobs) / l.busy.Seconds(), l.jobs},
	}
}

// traced is sdtd-mix's traced run: untraced and traced rounds alternate
// under a CPU profile; traced rounds record a span per client call and
// must return the same result bytes.
func (w *sdtdMix) traced(ctx context.Context, rep *report, budget time.Duration, want, name string) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, w.seed))
	ref, err := w.round(ctx, nil)
	if err != nil {
		return err
	}
	refDigest := ref.digest.String()
	ref.check(rep, refDigest, want)
	tr := newTracer()
	s := samples{}
	var lat latencies
	err = profiled(base+".cpu.pprof", func() error {
		return rounds(budget, func() error {
			var plain, traced *sdtdResult
			mp, err := measured(func() (err error) {
				plain, err = w.round(ctx, nil)
				return err
			})
			if err != nil {
				return err
			}
			plain.check(rep, refDigest, "")
			lat.add(plain, mp.wall)
			tr.nextRun()
			mt, err := measured(func() (err error) {
				traced, err = w.round(ctx, tr)
				return err
			})
			if err != nil {
				return err
			}
			traced.check(rep, refDigest, "")
			s.add("wall.plain", seconds(mp.wall))
			s.add("wall.traced", seconds(mt.wall))
			s.add("service.setup_ms", millis(plain.setup))
			s.add("gc.cycles", float64(mp.gcCycles))
			s.add("gc.pause_ms", millis(mp.gcPause))
			return nil
		})
	})
	if err != nil {
		return err
	}
	if err := tr.write(base + ".spans.json"); err != nil {
		return err
	}
	layers := newLayerMetrics()
	for _, n := range []string{"service.setup_ms", "gc.cycles", "gc.pause_ms"} {
		layers.setSamples(n, s[n])
	}
	layers.setSamples("service.queue_wait_ms", lat.wait)
	layers.setSamples("service.exec_ms", lat.exec)
	layers.setSamples("service.overhead_ms", lat.overhead)
	layers.setSamples("service.cache_hits", lat.hits)
	layers.setSamples("service.cache_misses", lat.misses)
	if h, m := median(lat.hits), median(lat.misses); h+m > 0 {
		layers.set("service.hit_ratio", h/(h+m), len(lat.hits))
	}
	for _, q := range lat.quantiles() {
		layers.set("service."+q.name, q.v, q.n)
	}
	layers.set("trace.overhead_frac", median(s["wall.traced"])/median(s["wall.plain"])-1, len(s["wall.plain"]))
	if err := layers.cpuShares(base + ".cpu.pprof"); err != nil {
		return err
	}
	layers.into(rep)
	rep.note("spans: %s.spans.json, CPU profile: %s.cpu.pprof", base, base)
	return nil
}
