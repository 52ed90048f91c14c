package reconfig

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/netsim"
	"repro/internal/partition"
	"repro/internal/projection"
	"repro/internal/routing"
	"repro/internal/telemetry"
	"repro/internal/topology"
)

// fixture builds a paper-style cabling hosting both topologies and a
// network with no traffic handed to a fabric owner — enough to drive
// the full stage protocol through the engine. It also returns the live
// route set the fabric forwards on.
func fixture(t *testing.T, g, target *topology.Graph) (*projection.Cabling, *controller.Rerouter, *routing.Routes) {
	t.Helper()
	switches := []projection.PhysicalSwitch{
		projection.H3CS6861("s6861-a"),
		projection.H3CS6861("s6861-b"),
		projection.H3CS6861("s6861-c"),
	}
	topos := []*topology.Graph{g}
	if target != nil {
		topos = append(topos, target)
	}
	cab, err := projection.PlanCabling(switches, topos, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	routes, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	net, err := netsim.NewNetwork(g, netsim.NewRouteForwarder(routes), netsim.DefaultConfig(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := controller.NewRerouter(net)
	if err != nil {
		t.Fatal(err)
	}
	return cab, rr, net.Fwd.(netsim.RouteForwarder).Routes
}

// transition returns the tracker's single transition record.
func transition(t *testing.T, rr *controller.Rerouter) *telemetry.TransitionRecord {
	t.Helper()
	rep := rr.Tracker.ReconfigReport(0)
	if len(rep.Transitions) != 1 {
		t.Fatalf("%d transition records, want 1", len(rep.Transitions))
	}
	return &rep.Transitions[0]
}

// allocCounts asserts the run-private allocation books exactly the
// resident plan's resources — no leaks, no double-booking.
func allocCounts(t *testing.T, r *Reconfigurer, plan *projection.Plan) {
	t.Helper()
	self, inter, host := r.Allocation().UsedCounts()
	if self != plan.SelfUsed || inter != plan.InterUsed || host != len(plan.HostAttach) {
		t.Fatalf("allocation books (self=%d inter=%d host=%d), resident plan %q needs (%d, %d, %d)",
			self, inter, host, plan.Topo.Name, plan.SelfUsed, plan.InterUsed, len(plan.HostAttach))
	}
}

func TestScheduleValidation(t *testing.T) {
	g := topology.FatTree(4)
	tgt := topology.Torus2D(4, 4, 1)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"nil target", Spec{Transitions: []Transition{{At: netsim.Millisecond}}}, "nil target"},
		{"non-positive time", Spec{Transitions: []Transition{{At: 0, Target: tgt}}}, "non-positive time"},
		{"negative window", Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: tgt, Drain: -1}}}, "negative stage window"},
		{"overlap", Spec{Transitions: []Transition{
			{At: netsim.Millisecond, Target: tgt},
			{At: netsim.Millisecond + DefaultDrain, Target: tgt},
		}}, "inside the previous"},
	}
	for _, tc := range cases {
		if _, err := tc.spec.Schedule(g); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}

	// A valid spec resolves defaulted stage times deterministically.
	spec := &Spec{Transitions: []Transition{{At: 2 * netsim.Millisecond, Target: tgt}}}
	stages, err := spec.Schedule(g)
	if err != nil {
		t.Fatal(err)
	}
	st := stages[0]
	if st.CommitAt != st.DrainAt+DefaultDrain || st.RestoreAt != st.CommitAt+DefaultInstall {
		t.Fatalf("stage times = %+v", st)
	}
	if st.PatchAt != st.DrainAt+DefaultPatchLatency {
		t.Fatalf("patch at %d, want drain+%d", st.PatchAt, DefaultPatchLatency)
	}
	if a, b := Digest(stages), Digest(stages); a != b || a == "" {
		t.Fatalf("digest unstable: %q vs %q", a, b)
	}

	// Patch disabled by a negative latency or one at/past the drain
	// window.
	for _, s := range []*Spec{
		{Transitions: spec.Transitions, PatchLatency: -1},
		{Transitions: spec.Transitions, PatchLatency: DefaultDrain},
	} {
		stages, err := s.Schedule(g)
		if err != nil {
			t.Fatal(err)
		}
		if stages[0].PatchAt != -1 {
			t.Fatalf("PatchLatency %d: patch not disabled", s.PatchLatency)
		}
	}

	// The zero spec is valid and schedules nothing.
	if stages, err := (&Spec{}).Schedule(g); err != nil || len(stages) != 0 {
		t.Fatalf("zero spec: %v, %d stages", err, len(stages))
	}
}

// TestCommitProtocol drives a fat-tree → torus transition through the
// engine and checks every stage effect: links drained then restored,
// degraded rules swapped then the originals back, the target committed
// with cost columns, every stage stamped on the tracker, and the
// allocation left booking exactly the target's plan.
func TestCommitProtocol(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, rr, live := fixture(t, g, target)
	net := rr.Net
	spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: target}}}
	rc, err := New(g, cab, rr, spec, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	if st.Outcome != "" {
		t.Fatalf("pre-rejected: %s", st.Outcome)
	}
	if len(st.Drained) == 0 {
		t.Fatal("no drained links: the target claims none of the running topology's cables")
	}

	rc.Bind()
	// Probe inside the drain window: every drained link is down.
	drainedDown := 0
	net.Sim.At(st.DrainAt+1, func() {
		for _, e := range st.Drained {
			if net.LinkIsDown(e) {
				drainedDown++
			}
		}
	})
	net.Sim.Run(0)

	if drainedDown != len(st.Drained) {
		t.Fatalf("%d/%d drained links down", drainedDown, len(st.Drained))
	}
	e := transition(t, rr)
	if e.DrainAt != st.DrainAt || e.DrainedLinks != len(st.Drained) ||
		e.PatchAt != st.PatchAt || e.DecisionAt != st.CommitAt || e.RestoreAt != st.RestoreAt {
		t.Fatalf("stage times not stamped: %+v vs %+v", e, st)
	}
	if e.PatchChurn == 0 || e.RestoreChurn == 0 {
		t.Fatalf("no rule churn: patch=%d restore=%d", e.PatchChurn, e.RestoreChurn)
	}
	if !e.Committed || e.Entries != st.Entries || e.ReconfigTime != st.ReconfigTime || e.HardwareCost != st.HardwareCost {
		t.Fatalf("commit not recorded: %+v", e)
	}
	if st.Outcome != OutcomeCommitted {
		t.Fatalf("outcome = %q", st.Outcome)
	}
	if st.Entries <= 0 || st.ReconfigTime <= 0 || st.HardwareCost <= 0 {
		t.Fatalf("cost columns = %d entries, %v, $%v", st.Entries, st.ReconfigTime, st.HardwareCost)
	}
	if rc.Plan().Topo != target {
		t.Fatalf("committed plan is for %q", rc.Plan().Topo.Name)
	}
	allocCounts(t, rc, rc.Plan())
	for _, e := range st.Drained {
		if net.LinkIsDown(e) {
			t.Fatalf("link %d still down after reconverge", e)
		}
	}
	if churn := routing.Churn(live.Rules, freshRules(t, g)); churn != 0 {
		t.Fatalf("live rules differ from the strategy's after restore: churn=%d", churn)
	}
}

// freshRules recomputes the strategy rules for comparison.
func freshRules(t *testing.T, g *topology.Graph) []routing.Rule {
	t.Helper()
	r, err := routing.ForTopology(g).Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	return r.Rules
}

// TestRollbackOnValidateFailure: an injected Plan.Check-stage failure
// aborts the transition; the fabric and allocation return to the old
// topology and the run completes.
func TestRollbackOnValidateFailure(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, rr, live := fixture(t, g, target)
	net := rr.Net
	injected := errors.New("injected plan-check failure")
	spec := &Spec{Transitions: []Transition{{
		At: netsim.Millisecond, Target: target,
		Validate: func(*projection.Plan) error { return injected },
	}}}
	rc, err := New(g, cab, rr, spec, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc.Bind()
	net.Sim.Run(0)

	st := &rc.Stages[0]
	e := transition(t, rr)
	if !strings.HasPrefix(st.Outcome, OutcomeRolledBack) || e.Committed || !strings.Contains(e.Reason, "injected") {
		t.Fatalf("outcome = %q, record = %+v", st.Outcome, e)
	}
	// Rollback restores at the decision, undoing exactly the patch.
	if e.RestoreAt != st.CommitAt || e.DecisionAt != st.CommitAt || e.RestoreChurn != e.PatchChurn {
		t.Fatalf("rollback restore not stamped at the decision: %+v", e)
	}
	if rc.Plan().Topo != g {
		t.Fatalf("plan after rollback is for %q, want the old topology", rc.Plan().Topo.Name)
	}
	allocCounts(t, rc, rc.Plan())
	for _, e := range st.Drained {
		if net.LinkIsDown(e) {
			t.Fatalf("link %d still down after rollback", e)
		}
	}
	if churn := routing.Churn(live.Rules, freshRules(t, g)); churn != 0 {
		t.Fatalf("live rules not restored after rollback: churn=%d", churn)
	}
}

// TestStageTimeoutRollback: a modelled install time beyond the spec's
// stage timeout aborts to rollback.
func TestStageTimeoutRollback(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Torus2D(4, 4, 1)
	cab, rr, _ := fixture(t, g, target)
	spec := &Spec{
		Transitions:  []Transition{{At: netsim.Millisecond, Target: target}},
		StageTimeout: time.Nanosecond,
	}
	rc, err := New(g, cab, rr, spec, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc.Bind()
	rr.Net.Sim.Run(0)
	if !strings.Contains(rc.Stages[0].Outcome, "stage timeout") {
		t.Fatalf("outcome = %q", rc.Stages[0].Outcome)
	}
	allocCounts(t, rc, rc.Plan())
}

// TestRejectBeforeDrain: a target that cannot be projected at all is
// rejected at New time and never touches the fabric.
func TestRejectBeforeDrain(t *testing.T) {
	g := topology.FatTree(4)
	cab, rr, _ := fixture(t, g, nil) // cabling planned for g only
	net := rr.Net
	spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: topology.FatTree(8)}}}
	rc, err := New(g, cab, rr, spec, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := &rc.Stages[0]
	if !strings.HasPrefix(st.Outcome, OutcomeRejected) || len(st.Drained) != 0 {
		t.Fatalf("outcome = %q, drained = %v", st.Outcome, st.Drained)
	}
	rc.Bind()
	net.Sim.Run(0)
	if e := transition(t, rr); !e.Rejected || e.Reason != st.Outcome || e.DrainAt != st.DrainAt {
		t.Fatalf("reject not recorded at drain time: %+v", e)
	}
	for eid := range g.Edges {
		if net.LinkIsDown(eid) {
			t.Fatalf("rejected transition drained link %d", eid)
		}
	}
	allocCounts(t, rc, rc.Plan())
}

// TestDrainSetDeterministic: equal inputs give byte-identical schedules
// and drained sets across repeated construction.
func TestDrainSetDeterministic(t *testing.T) {
	g := topology.FatTree(4)
	target := topology.Dragonfly(4, 9, 2, 1)
	var digests []string
	for rep := 0; rep < 2; rep++ {
		cab, rr, _ := fixture(t, g, target)
		spec := &Spec{Transitions: []Transition{{At: netsim.Millisecond, Target: target}}}
		rc, err := New(g, cab, rr, spec, partition.Options{})
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, Digest(rc.Stages))
	}
	if digests[0] != digests[1] {
		t.Fatalf("drain schedule diverged:\n%s\nvs\n%s", digests[0], digests[1])
	}
}
