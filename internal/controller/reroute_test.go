package controller_test

import (
	"testing"

	"repro/internal/controller"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/routing"
	"repro/internal/topology"
)

// ownedFatTree builds a k=4 fat-tree fabric over a shared strategy
// route set and hands it to a fresh owner.
func ownedFatTree(t *testing.T) (*topology.Graph, *routing.Routes, *netsim.Network, *controller.Rerouter) {
	t.Helper()
	g := topology.FatTree(4)
	orig, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	orig.Prime()
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(orig), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := controller.NewRerouter(net)
	if err != nil {
		t.Fatal(err)
	}
	return g, orig, net, rr
}

// usesEdge reports whether any rule forwards onto logical edge e.
func usesEdge(g *topology.Graph, rules []routing.Rule, e int) bool {
	csr := g.CSR()
	for i := range rules {
		r := &rules[i]
		lo, hi := csr.Row(r.Switch)
		for h := lo; h < hi; h++ {
			if int(csr.Port[h]) == r.OutPort && int(csr.Edge[h]) == e {
				return true
			}
		}
	}
	return false
}

// TestRerouterRepairsLiveRoutes drives the owner through a fault
// link down/up cycle on a live network and checks the route set the
// forwarder reads is patched after the latency and restored after
// recovery, with both repairs stamped on the tracker.
func TestRerouterRepairsLiveRoutes(t *testing.T) {
	g, orig, net, rr := ownedFatTree(t)
	live := net.Fwd.(netsim.RouteForwarder).Routes
	if live == orig {
		t.Fatal("the owner forwards on the shared route set, not a private clone")
	}
	dead := faults.PickCoreEdges(g, 1, 5)[0]
	sched, err := (&faults.Spec{Events: []faults.Event{
		{At: 10 * netsim.Microsecond, Kind: faults.LinkDown, Elem: dead},
		{At: 500 * netsim.Microsecond, Kind: faults.LinkUp, Elem: dead},
	}}).Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	faults.Bind(rr, sched, 100*netsim.Microsecond)

	// Between repair (110us) and recovery repair (600us) the live rules
	// must avoid the dead edge.
	checked := 0
	net.Sim.At(300*netsim.Microsecond, func() {
		checked++
		if usesEdge(g, live.Rules, dead) {
			t.Error("live routes still use the dead edge after repair")
		}
	})
	net.Sim.At(800*netsim.Microsecond, func() {
		checked++
		if routing.Churn(live.Rules, orig.Rules) != 0 {
			t.Error("recovery did not restore the original routes")
		}
	})
	net.Sim.Run(0)

	if checked != 2 {
		t.Fatalf("%d probes ran", checked)
	}
	rec := rr.Tracker.Report(0)
	if len(rec.Events) != 2 {
		t.Fatalf("%d fault records, want 2", len(rec.Events))
	}
	first, second := rec.Events[0], rec.Events[1]
	if first.RepairAt != 110*netsim.Microsecond || second.RepairAt != 600*netsim.Microsecond {
		t.Fatalf("repair times %v, %v", first.RepairAt, second.RepairAt)
	}
	if first.RulesChanged == 0 {
		t.Fatal("first repair changed nothing")
	}
	// Symmetric churn: the restore undoes exactly the patch.
	if second.RulesChanged != first.RulesChanged || rec.TotalChurn() != 2*first.RulesChanged {
		t.Fatalf("restore churn %d, patch churn %d, total %d",
			second.RulesChanged, first.RulesChanged, rec.TotalChurn())
	}
	// The owner mutated only its private set, never the strategy's.
	fresh, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	if routing.Churn(fresh.Rules, orig.Rules) != 0 {
		t.Fatal("original routes were mutated by the owner")
	}
}

// TestRerouterHoldsPerSource pins the per-source state rule: an element
// is down while any source holds it, and repairs route around exactly
// the held set.
func TestRerouterHoldsPerSource(t *testing.T) {
	g, orig, net, rr := ownedFatTree(t)
	live := net.Fwd.(netsim.RouteForwarder).Routes
	e := faults.PickCoreEdges(g, 1, 5)[0]
	step := func(src controller.Source, down, wantDown bool) {
		t.Helper()
		rr.SetLinkDown(src, e, down)
		if net.LinkIsDown(e) != wantDown {
			t.Fatalf("after %v(src=%d): link down=%v, want %v", down, src, net.LinkIsDown(e), wantDown)
		}
	}
	step(controller.FaultHold, true, true)
	step(controller.DrainHold, true, true)
	patch := rr.Repair()
	if patch == 0 || usesEdge(g, live.Rules, e) {
		t.Fatalf("repair around the held link: churn=%d", patch)
	}
	step(controller.FaultHold, false, true) // the drain still holds it
	if churn := rr.Repair(); churn != 0 {
		t.Fatalf("repair with the same held set churned %d", churn)
	}
	step(controller.FaultHold, false, true) // releasing twice is a no-op
	step(controller.DrainHold, false, false)
	if restore := rr.Repair(); restore != patch || routing.Churn(live.Rules, orig.Rules) != 0 {
		t.Fatalf("restore churn %d (patch %d); live differs from the strategy", restore, patch)
	}
}

// TestRuleChurn pins the symmetric-difference accounting the Rerouter
// reports as repair churn.
func TestRuleChurn(t *testing.T) {
	a := routing.Rule{Switch: 1, Dst: 2, OutPort: 3, NewTag: -1}
	b := routing.Rule{Switch: 1, Dst: 2, OutPort: 4, NewTag: -1}
	c := routing.Rule{Switch: 2, Dst: 2, OutPort: 1, NewTag: -1}
	cases := []struct {
		old, new []routing.Rule
		want     int
	}{
		{nil, nil, 0},
		{[]routing.Rule{a}, []routing.Rule{a}, 0},
		{[]routing.Rule{a}, []routing.Rule{b}, 2},
		{[]routing.Rule{a, c}, []routing.Rule{a}, 1},
		{[]routing.Rule{a}, []routing.Rule{a, b, c}, 2},
		{[]routing.Rule{a, a}, []routing.Rule{a}, 1}, // duplicates count
	}
	for i, cse := range cases {
		if got := routing.Churn(cse.old, cse.new); got != cse.want {
			t.Errorf("case %d: churn %d, want %d", i, got, cse.want)
		}
	}
}
