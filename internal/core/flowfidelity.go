package core

// The flow-level fidelity path: runScenario branches here when a
// scenario selects Fidelity: Flow, handing the open-loop schedule to
// internal/flowsim's fluid engine instead of building a packet-level
// fabric. The scenario surface stays identical — same Scenario, same
// RunResult, same FCT result fields on the Flows slice — which is what
// lets the differential harness and telemetry.MeasureFCT treat the two
// fidelities interchangeably.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/flowsim"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// runFlowScenario executes one Flow-fidelity scenario. hosts is the
// resolved rank placement (hosts[i] = vertex of rank i). The fluid
// model cannot honour packet-level machinery, and silently degrading
// would corrupt comparisons, so everything it cannot express fails
// loudly: closed-loop traces, fault schedules, live reconfiguration,
// SDT projection, and observers. Shards are ignored (the fluid event
// loop is inherently serial); the result reports Shards: 1.
func runFlowScenario(ctx context.Context, sc Scenario, cfg *runConfig, hosts []int, simCfg netsim.Config) (*RunResult, error) {
	if sc.Trace != nil {
		return nil, errors.New("core: flow fidelity requires an open-loop Flows scenario, not a Trace (closed-loop replay has no fluid equivalent)")
	}
	if sc.mutatesFabric() {
		return nil, errors.New("core: flow fidelity cannot inject faults or reconfigure topology mid-run (packet loss has no fluid equivalent); run at packet fidelity")
	}
	if sc.Mode == SDT {
		return nil, errors.New("core: flow fidelity does not model SDT projection (crossbar sharing and per-hop overhead are packet-level); use FullTestbed or Simulator mode")
	}
	if len(cfg.observers) > 0 {
		return nil, errors.New("core: flow fidelity supports no observers (there is no packet-level network to observe)")
	}
	strat := sc.Strategy
	if strat == nil {
		strat = routing.ForTopology(sc.Topo)
	}
	routes, err := flowRoutes(sc.Topo, strat, hosts, sc.Flows)
	if err != nil {
		return nil, err
	}
	wallStart := time.Now()
	res, err := flowsim.Run(ctx, sc.Topo, routes, simCfg, hosts, sc.Flows)
	if err != nil {
		return nil, err
	}
	wall := time.Since(wallStart)
	out := &RunResult{
		Mode:   sc.Mode,
		ACT:    res.ACT,
		Wall:   wall,
		Events: res.Recomputes,
		Shards: 1,
	}
	switch sc.Mode {
	case FullTestbed:
		out.Eval = time.Duration(int64(res.ACT) / 1000) // ps -> ns
	default: // Simulator
		out.Eval = wall
	}
	return out, nil
}

// flowRoutes computes the route set a flow-level run resolves paths
// over. Every Table III strategy supports per-destination subset
// computation (routing.DstComputer), and a fluid run only needs rules
// toward hosts that actually receive traffic — on a 10k-host fat-tree
// the full route set alone would dwarf the simulation, so the subset
// computation is what makes XL fabrics tractable. Strategies outside
// the interface fall back to a full compute.
func flowRoutes(g *topology.Graph, strat routing.Strategy, hosts []int, flows []netsim.Flow) (*routing.Routes, error) {
	dc, ok := strat.(routing.DstComputer)
	if !ok {
		return strat.Compute(g)
	}
	seen := make(map[int]bool, len(hosts))
	dsts := make([]int, 0, len(hosts))
	for i := range flows {
		d := flows[i].Dst
		// Out-of-range ranks fall through to flowsim's validation,
		// which names the offending flow.
		if d >= 0 && d < len(hosts) && !seen[d] {
			seen[d] = true
			dsts = append(dsts, hosts[d])
		}
	}
	routes, err := dc.ComputeFor(g, dsts)
	if err != nil {
		return nil, fmt.Errorf("core: flow-fidelity route subset: %w", err)
	}
	return routes, nil
}
