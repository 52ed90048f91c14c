package core

// Run and Sweep: the context-aware execution surface. Run executes one
// Scenario on a Testbed; Sweep executes a batch of (Testbed, Scenario)
// jobs one simulation per worker. Both thread cancellation into the
// engine's event loop — a cancelled context stops a simulation within
// one engine.StopStride of events, not merely between jobs.

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/reconfig"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// Run executes one scenario on the testbed. The context cancels
// cooperatively: the engine's run loop polls a stop flag every
// engine.StopStride events, so cancellation lands mid-simulation and
// Run returns ctx.Err(). Options override the corresponding scenario
// fields.
//
// Cancellation contract: a cancelled Run returns (nil, ctx.Err()) —
// never a partial RunResult. A simulation stopped at an arbitrary
// event-stride boundary has internally inconsistent counters (packets
// mid-flight, trackers mid-window), so no RunResult is synthesized
// from it; per-flow progress a caller owns (Scenario.Flows completion
// fields) is still as the engine left it. Pinned by
// TestCancelContract.
func Run(ctx context.Context, tb *Testbed, sc Scenario, opts ...Option) (*RunResult, error) {
	return runScenario(ctx, tb, sc, newRunConfig(opts))
}

// Job is one Sweep entry: a scenario bound to the testbed that runs
// it. Jobs in one sweep may target different testbeds (e.g. Table IV
// sizes a testbed per topology).
type Job struct {
	TB *Testbed
	Scenario
}

// Sweep executes independent jobs one simulation per worker
// (WithWorkers) and returns results in job order. SDT deployments and
// the lazy topology caches are primed serially up front (deploying
// mutates the controller; a live deployment is read-only), after which
// the simulations share only read-only state. Cancelling the context stops in-flight simulations
// mid-run and prevents new jobs from starting; Sweep then returns
// ctx.Err(). Simulator-mode Wall/Eval columns measure contended wall
// clock when workers > 1.
//
// Cancellation contract: when Sweep returns an error after jobs have
// started — cancellation included — it returns the PARTIAL results
// slice alongside the error: out[i] is non-nil exactly for the jobs
// that completed before the failure, nil for jobs that were cancelled
// mid-run or never started. Callers that only want all-or-nothing keep
// ignoring the slice on error; callers like a draining service salvage
// the completed entries. A Sweep that fails validation before starting
// any job returns (nil, err). Pinned by TestCancelContract.
func Sweep(ctx context.Context, jobs []Job, opts ...Option) ([]*RunResult, error) {
	cfg := newRunConfig(opts)
	seen := map[*topology.Graph]bool{}
	for _, j := range jobs {
		if j.TB == nil {
			return nil, errors.New("core: sweep job without a testbed")
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !seen[j.Topo] {
			seen[j.Topo] = true
			if j.Topo == nil {
				return nil, errors.New("core: sweep job without a topology")
			}
			if err := j.Topo.Validate(); err != nil {
				return nil, err
			}
			j.Topo.Hosts() // build the lazy adjacency/kind caches
		}
		if j.Mode == SDT {
			strat := j.Strategy
			if cfg.strategy != nil {
				strat = cfg.strategy
			}
			if _, err := j.TB.ensureDeployment(j.Topo, strat); err != nil {
				return nil, err
			}
		}
	}
	out := make([]*RunResult, len(jobs))
	err := par.For(ctx, cfg.workers, len(jobs), func(i int) error {
		res, err := runScenario(ctx, jobs[i].TB, jobs[i].Scenario, cfg)
		if err != nil {
			return err
		}
		out[i] = res
		return nil
	})
	// Partial results survive an error: par.For has joined every started
	// worker by now, so the slice is quiescent and out[i] != nil marks
	// exactly the completed jobs.
	return out, err
}

// WatchCancel arms cooperative cancellation of a simulation on ctx:
// the engine's run loop stops within engine.StopStride events of the
// context ending. The returned release func detaches the watcher and
// must be called once the run returns (typically via defer). Callers
// driving netsim directly (rather than through Run) use this to get
// the same mid-simulation cancellation.
func WatchCancel(ctx context.Context, sim *netsim.Sim) (release func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	var flag atomic.Bool
	sim.SetStop(&flag, 0)
	stop := watchFlag(ctx, &flag)
	return func() {
		stop()
		sim.SetStop(nil, 0)
	}
}

// watchFlag raises flag when ctx ends; the returned func retires the
// watcher goroutine.
func watchFlag(ctx context.Context, flag *atomic.Bool) func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			flag.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// effectiveShards resolves the shard count one run executes with: the
// WithShards override, else the scenario's Shards field, clamped to
// the topology's switch count, and forced to 1 (serial) whenever the
// scenario needs whole-fabric mutation or mid-run observation that the
// conservative executor cannot shard:
//
//   - fabric mutation — faults or live reconfiguration (the owner
//     takes links and switches down across shards and patches the
//     shared forwarding state mid-run),
//   - SDT projection (sub-switches share physical crossbars),
//   - Tick observers, WithTelemetry included (they read cross-shard
//     state at simulated times the other shards haven't reached),
//   - zero propagation delay (no lookahead, no safe window).
func effectiveShards(sc Scenario, cfg *runConfig, simCfg netsim.Config, g *topology.Graph) int {
	k := cfg.shards
	if k == 0 {
		k = sc.Shards
	}
	if k < 1 {
		k = 1
	}
	if sw := len(g.Switches()); k > sw {
		k = sw
	}
	if k == 1 {
		return 1
	}
	if sc.mutatesFabric() || sc.Mode == SDT || simCfg.PropDelay <= 0 {
		return 1
	}
	for _, h := range cfg.observers {
		if h.Tick != nil {
			return 1
		}
	}
	return k
}

// scenarioWorkload names a scenario's workload and derives its rank
// count: the trace's declared Ranks, or one past the highest rank a
// flow schedule references.
func scenarioWorkload(sc Scenario) (name string, ranks int) {
	if sc.Trace != nil {
		return sc.Trace.Name, sc.Trace.Ranks
	}
	for i := range sc.Flows {
		f := &sc.Flows[i]
		if f.Src >= ranks {
			ranks = f.Src + 1
		}
		if f.Dst >= ranks {
			ranks = f.Dst + 1
		}
	}
	return fmt.Sprintf("flows[%d]", len(sc.Flows)), ranks
}

// runScenario is the one execution path under Run and Sweep.
func runScenario(ctx context.Context, tb *Testbed, sc Scenario, cfg *runConfig) (*RunResult, error) {
	// Options override scenario fields.
	if cfg.hosts != nil {
		sc.Hosts = cfg.hosts
	}
	if cfg.strategy != nil {
		sc.Strategy = cfg.strategy
	}
	if cfg.simCfg != nil {
		sc.SimConfig = cfg.simCfg
	}
	if cfg.hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, cfg.deadline)
		defer cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, tr := sc.Topo, sc.Trace
	if g == nil || (tr == nil && sc.Flows == nil) {
		return nil, errors.New("core: scenario needs a Topo and a Trace or Flows")
	}
	if tr != nil && sc.Flows != nil {
		return nil, errors.New("core: scenario cannot carry both a Trace and Flows")
	}
	name, ranks := scenarioWorkload(sc)
	hosts := sc.Hosts
	if hosts == nil {
		all := g.Hosts()
		if len(all) < ranks {
			return nil, fmt.Errorf("core: topology %q has %d hosts, workload needs %d", g.Name, len(all), ranks)
		}
		hosts = PickSpread(all, ranks)
	}
	if len(hosts) < ranks {
		return nil, fmt.Errorf("core: %d hosts for %d ranks", len(hosts), ranks)
	}
	simCfg := tb.Cfg
	if sc.SimConfig != nil {
		simCfg = *sc.SimConfig
	}
	if cfg.hasFidelity {
		sc.Fidelity = cfg.fidelity
	}
	if sc.Fidelity == Flow {
		return runFlowScenario(ctx, sc, cfg, hosts[:ranks], simCfg)
	}
	shards := effectiveShards(sc, cfg, simCfg, g)
	var (
		net *netsim.Network
		dep *controller.Deployment
		ex  *shard.Executor
		err error
	)
	if shards > 1 {
		// Conservative parallel path: one fabric, K engines. The
		// forwarder comes from the same route computation the serial
		// path uses, so both paths forward identically.
		fwd, _, _, _, ferr := tb.forwarder(g, sc.Strategy, sc.Mode)
		if ferr != nil {
			return nil, ferr
		}
		if ex, err = shard.New(g, fwd, simCfg, shards, shard.Options{}); err != nil {
			return nil, err
		}
		net = ex.Primary()
	} else if net, dep, err = tb.network(g, sc.Strategy, sc.Mode, simCfg); err != nil {
		return nil, err
	}
	var app interface {
		Start()
		ACT() netsim.Time
	}
	if tr != nil {
		app = netsim.NewApp(net, hosts, tr.Programs, nil)
	} else {
		app = netsim.NewFlowApp(net, hosts[:ranks], sc.Flows, nil)
	}
	tracker, err := armMutations(net, sc, tb)
	if err != nil {
		return nil, err
	}
	for _, h := range cfg.observers {
		if h.Start != nil {
			h.Start(net, sc)
		}
	}
	armTicks(net, app, cfg.observers)
	var release func()
	if ex != nil {
		var flag atomic.Bool
		ex.SetStop(&flag)
		if ctx != nil && ctx.Done() != nil {
			release = watchFlag(ctx, &flag)
		} else {
			release = func() {}
		}
	} else {
		release = WatchCancel(ctx, net.Sim)
	}
	wallStart := time.Now()
	app.Start()
	if ex != nil {
		ex.Run()
	} else {
		net.Sim.Run(0)
	}
	release()
	wall := time.Since(wallStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Merge fabric counters (a serial run is the K=1 merge).
	var drops, pauses, ecn, faultDrops, events int64
	nets := []*netsim.Network{net}
	if ex != nil {
		nets = ex.Nets
	}
	for _, sn := range nets {
		drops += sn.TotalDrops
		pauses += sn.PausesSent
		ecn += sn.EcnMarks
		faultDrops += sn.FaultDrops
		events += sn.Sim.Events()
	}
	act := app.ACT()
	incomplete := 0
	if act < 0 {
		fa, isFlows := app.(*netsim.FlowApp)
		if !sc.mutatesFabric() || !isFlows {
			return nil, fmt.Errorf("core: %s on %s (%s) did not complete: drops=%d faultdrops=%d",
				name, g.Name, sc.Mode, drops, faultDrops)
		}
		// Open-loop flows under faults or reconfiguration: packet loss
		// is a result, not an error. ACT degrades to the last completed
		// flow.
		act = fa.LastCompletion()
		incomplete = fa.Outstanding()
	}
	res := &RunResult{
		Mode: sc.Mode, ACT: act, Wall: wall,
		Drops: drops, Pauses: pauses, EcnMarks: ecn,
		Events: events, FaultDrops: faultDrops, Incomplete: incomplete,
		Shards: shards,
	}
	if sc.Faults != nil {
		res.Recovery = tracker.Report(incomplete)
	}
	if sc.Reconfig != nil {
		res.Reconfig = tracker.ReconfigReport(incomplete)
	}
	switch sc.Mode {
	case FullTestbed:
		res.Eval = time.Duration(int64(act) / 1000) // ps -> ns
	case SDT:
		if dep != nil {
			res.Deploy = dep.DeployTime
		}
		res.Eval = time.Duration(int64(act)/1000) + res.Deploy
	case Simulator:
		res.Eval = wall
	}
	for _, h := range cfg.observers {
		if h.Finish != nil {
			h.Finish(res, net)
		}
	}
	return res, nil
}

// armMutations binds the scenario's mid-run fabric mutations, if any,
// to one owner: a controller.Rerouter over a run-private clone of the
// route set, driven by the fault schedule (faults.Bind) and by the
// reconfiguration protocol (a Reconfigurer over a run-private
// projection allocation drawn from the testbed controller's cabling).
// Faults bind first, so at equal times fault events fire before stage
// events. Returns the owner's tracker, or nil when the scenario does
// not mutate the fabric.
func armMutations(net *netsim.Network, sc Scenario, tb *Testbed) (*telemetry.RecoveryTracker, error) {
	if !sc.mutatesFabric() {
		return nil, nil
	}
	rr, err := controller.NewRerouter(net)
	if err != nil {
		return nil, err
	}
	if sc.Faults != nil {
		sched, err := sc.Faults.Schedule(sc.Topo)
		if err != nil {
			return nil, err
		}
		faults.Bind(rr, sched, sc.Faults.Repair())
	}
	if sc.Reconfig != nil {
		rc, err := reconfig.New(sc.Topo, tb.Ctl.Cabling, rr, sc.Reconfig, partition.Options{})
		if err != nil {
			return nil, err
		}
		rc.Bind()
	}
	return rr.Tracker, nil
}

// armTicks schedules each observer's periodic Tick inside the
// simulation. A tick chain re-arms itself only while the workload is
// incomplete AND the event queue holds something beyond the other
// chains' next ticks: once the last rank finishes — or the fabric goes
// quiescent with the workload stuck (drops with nothing left to
// retransmit) — the chains disarm, the queue drains, and Run(0)
// returns, so observers never mask the did-not-complete error with an
// infinite self-rescheduling timer.
func armTicks(net *netsim.Network, app interface{ ACT() netsim.Time }, observers []Hooks) {
	type ticker struct {
		fn     func(now netsim.Time, net *netsim.Network)
		period netsim.Time
	}
	var tickers []ticker
	for _, h := range observers {
		if h.Tick == nil {
			continue
		}
		period := h.Period
		if period <= 0 {
			period = netsim.Millisecond
		}
		tickers = append(tickers, ticker{fn: h.Tick, period: period})
	}
	// active counts still-armed chains. While a chain executes, every
	// other live chain has exactly one pending tick event, so
	// Pending() < active means the ticks are the only future — the
	// simulation is done or wedged either way.
	active := len(tickers)
	for _, tk := range tickers {
		tk := tk
		var arm func(at netsim.Time)
		arm = func(at netsim.Time) {
			net.Sim.At(at, func() {
				tk.fn(at, net)
				if app.ACT() >= 0 || net.Sim.Pending() < active {
					active--
					return
				}
				arm(at + tk.period)
			})
		}
		arm(tk.period)
	}
}
