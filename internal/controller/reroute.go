package controller

// Rerouter is the one owner of a run's mid-run fabric mutations: the
// live route set the fabric forwards on and the down-state of every
// link and switch. Both mutation sources drive it — fault schedules
// (faults.Bind) and live reconfiguration drains (reconfig.Reconfigurer)
// — and it reports into the run's one telemetry.RecoveryTracker.
//
// Element state is held per source: a link or switch is down while any
// source holds it down (a fault, or a reconfiguration drain), and the
// fabric (netsim.Network.SetLinkDown/SetSwitchDown) sees a call only
// when that held state changes. A fault's LinkUp therefore does not
// revive a link a transition is draining, and a transition's restore
// does not revive a link a fault still holds.
//
// Every repair is the same operation: routing.RepairAvoiding of the
// original strategy rules around everything down now, swapped live
// with ReplaceRules (skipped when nothing changes) — destinations whose
// original tree forwards into a dead element move to single-VC
// shortest paths on the surviving subgraph, healthy destinations keep
// their strategy rules, and with nothing down the original rules come
// back exactly. The fabric's RouteForwarder re-fetches the memoized
// FIB on every Forward, so the fast path recompiles once, on the first
// packet after a repair lands — the routing repair of §V-2's reactive
// flow setup applied to failures and drains instead of new flows.

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/telemetry"
)

// Source identifies who holds an element down.
type Source uint8

// Mutation sources.
const (
	// FaultHold is a fault schedule's hold.
	FaultHold Source = 1 << iota
	// DrainHold is a reconfiguration transition's drain.
	DrainHold
)

// element keys one link (edge ID) or switch (vertex ID).
type element struct {
	link bool
	id   int
}

// Rerouter owns one run's live routes and element down-state. Create
// with NewRerouter before the simulation starts; every method runs
// inside the engine thread.
type Rerouter struct {
	// Net is the fabric being mutated.
	Net *netsim.Network
	// Tracker records faults, repairs and transitions for the run
	// result.
	Tracker *telemetry.RecoveryTracker

	orig *routing.Routes // the strategy's route set: the repair baseline, never mutated
	live *routing.Routes // the run-private clone the fabric forwards on
	held map[element]Source
	down routing.Outage // elements with at least one holder
}

// NewRerouter takes ownership of a fabric's forwarding state: it gives
// the network a run-private clone of its route set (repairs mutate it
// mid-run, and the original may be shared with SDT deployments and
// sweep siblings) and a fresh recovery tracker.
func NewRerouter(net *netsim.Network) (*Rerouter, error) {
	rf, ok := net.Fwd.(netsim.RouteForwarder)
	if !ok {
		return nil, errors.New("controller: mid-run fabric mutation needs a route-forwarded fabric")
	}
	live := rf.Routes.Clone()
	live.Prime()
	net.Fwd = netsim.NewRouteForwarder(live)
	return &Rerouter{
		Net:     net,
		Tracker: telemetry.NewRecoveryTracker(net),
		orig:    rf.Routes,
		live:    live,
		held:    map[element]Source{},
		down:    routing.Outage{Edge: map[int]bool{}, Switch: map[int]bool{}},
	}, nil
}

// SetLinkDown holds (down) or releases logical edge e on behalf of src.
func (r *Rerouter) SetLinkDown(src Source, e int, down bool) {
	if r.hold(element{true, e}, src, down) {
		setDown(r.down.Edge, e, down)
		r.Net.SetLinkDown(e, down)
	}
}

// SetSwitchDown holds (down) or releases switch vertex v on behalf of
// src.
func (r *Rerouter) SetSwitchDown(src Source, v int, down bool) {
	if r.hold(element{false, v}, src, down) {
		setDown(r.down.Switch, v, down)
		r.Net.SetSwitchDown(v, down)
	}
}

// hold updates src's hold on el and reports whether the element's
// down-state (any holder) changed.
func (r *Rerouter) hold(el element, src Source, down bool) bool {
	was := r.held[el]
	now := was &^ src
	if down {
		now |= src
	}
	if now == 0 {
		delete(r.held, el)
	} else {
		r.held[el] = now
	}
	return (was == 0) != (now == 0)
}

// setDown maintains one outage map: present exactly while down.
func setDown(m map[int]bool, id int, down bool) {
	if down {
		m[id] = true
	} else {
		delete(m, id)
	}
}

// Repair patches the live routes around everything down now and
// returns the churn: rules added plus rules removed versus the rule set
// live before.
func (r *Rerouter) Repair() int {
	rules, _ := routing.RepairAvoiding(r.orig, r.down)
	churn := routing.Churn(r.live.Rules, rules)
	if churn != 0 {
		r.live.ReplaceRules(append([]routing.Rule(nil), rules...))
	}
	return churn
}
