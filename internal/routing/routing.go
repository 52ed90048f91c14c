// Package routing implements the SDT controller's Routing Strategy
// module (§V-2) and the deadlock-avoidance schemes of Table III.
//
// A Strategy computes, for a logical topology, a set of forwarding
// Rules: per logical switch, destination host (and optionally ingress
// port and virtual-channel tag) → output port and next tag. Rules are
// substrate-independent; they compile either onto the logical topology
// (full-testbed simulation) or through a projection Plan onto physical
// OpenFlow switches (SDT).
//
// Deadlock freedom for lossless (PFC) operation is verified by building
// the channel dependency graph over (link, direction, VC) channels and
// checking it is acyclic (Dally & Seitz). Strategies that need VC
// transitions (Dragonfly, Torus) express them through the Tag field.
package routing

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/openflow"
	"repro/internal/par"
	"repro/internal/topology"
)

// Rule is one forwarding decision on a logical switch.
type Rule struct {
	Switch  int // logical switch vertex ID
	InPort  int // logical ingress port; 0 = any
	Dst     int // destination host vertex ID
	Tag     int // required VC tag; openflow.Any = any
	OutPort int // logical egress port
	NewTag  int // -1 = keep tag, else rewrite
}

// Routes is the output of a Strategy.
type Routes struct {
	Topo     *topology.Graph
	Strategy string
	NumVCs   int // number of distinct VC tags used (>=1)
	Rules    []Rule

	// index permutes rule indices into (Switch, Dst, most specific
	// first, rule index) order, so each (switch, dst) group is one
	// contiguous run; index[swOff[sw]:swOff[sw+1]] is switch sw's run
	// for the switch IDs inside the vertex range. Built lazily (nil
	// swOff = not built).
	index []int32
	swOff []int32
	fib   *FIB // compiled fast path, memoized by FIB()
}

// Strategy computes routes for a topology.
type Strategy interface {
	Name() string
	Compute(g *topology.Graph) (*Routes, error)
}

// Fixed adapts an already-computed route set into a Strategy — the
// bridge that lets a run Scenario carry routes produced outside a
// strategy, such as the Network Monitor's UGAL active routes.
type Fixed struct{ Routes *Routes }

// Name reports the wrapped route set's strategy name.
func (f Fixed) Name() string {
	if f.Routes == nil {
		return "fixed"
	}
	return f.Routes.Strategy
}

// Compute returns the wrapped routes, rejecting a topology mismatch
// (rules reference vertex IDs of the topology they were computed for).
func (f Fixed) Compute(g *topology.Graph) (*Routes, error) {
	if f.Routes == nil {
		return nil, fmt.Errorf("routing: Fixed with nil Routes")
	}
	if f.Routes.Topo != g {
		return nil, fmt.Errorf("routing: fixed routes were computed for topology %q, not %q",
			f.Routes.Topo.Name, g.Name)
	}
	return f.Routes, nil
}

func newRoutes(g *topology.Graph, name string, vcs int) *Routes {
	return &Routes{Topo: g, Strategy: name, NumVCs: vcs}
}

// NewManualRoutes starts an empty route set for a user-defined routing
// strategy ("users can develop their routing strategy ... with the SDT
// controller", §I). Add rules with AddRule; verify with
// VerifyDeadlockFree before deploying on a lossless fabric.
func NewManualRoutes(g *topology.Graph, name string, numVCs int) *Routes {
	return newRoutes(g, name, numVCs)
}

// AddRule appends a forwarding rule to a manual route set.
func (r *Routes) AddRule(rule Rule) { r.add(rule) }

func (r *Routes) add(rule Rule) {
	r.Rules = append(r.Rules, rule)
	r.invalidate()
}

// invalidate drops the derived lookup structures after a rule mutation.
func (r *Routes) invalidate() {
	r.index = nil
	r.swOff = nil
	r.fib = nil
}

// specificity ranks a rule's match for Lookup: an InPort-qualified rule
// beats a Tag-qualified one, which beats a full wildcard.
func specificity(r *Rule) int {
	s := 0
	if r.InPort != 0 {
		s += 2
	}
	if r.Tag != openflow.Any {
		s++
	}
	return s
}

// buildIndex orders the rule indices by (Switch, Dst, most specific
// first, rule index). Rules already in (Switch, Dst) order — every
// strategy's output — take the linear path: only the per-group
// specificity order is fixed up, and groups are a few rules long.
func (r *Routes) buildIndex() {
	if r.swOff != nil {
		return
	}
	rules := r.Rules
	idx := make([]int32, len(rules))
	grouped := true
	for i := range idx {
		idx[i] = int32(i)
		if i > 0 && cmpSwitchDst(&rules[i-1], &rules[i]) > 0 {
			grouped = false
		}
	}
	if !grouped {
		slices.SortFunc(idx, func(a, b int32) int {
			return cmp.Or(cmpSwitchDst(&rules[a], &rules[b]), cmp.Compare(a, b))
		})
	}
	r.index = idx
	for lo := 0; lo < len(idx); {
		hi := r.groupEnd(lo)
		if hi-lo > 1 {
			slices.SortStableFunc(idx[lo:hi], func(a, b int32) int {
				return cmp.Compare(specificity(&rules[b]), specificity(&rules[a]))
			})
		}
		lo = hi
	}
	nv := len(r.Topo.Vertices)
	r.swOff = make([]int32, nv+1)
	i := 0
	for sw := 0; sw <= nv; sw++ {
		for i < len(idx) && rules[idx[i]].Switch < sw {
			i++
		}
		r.swOff[sw] = int32(i)
	}
}

// cmpSwitchDst orders rules by their (Switch, Dst) group.
func cmpSwitchDst(a, b *Rule) int {
	return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Dst, b.Dst))
}

// groupEnd returns the end of the index run that starts at lo and
// shares its (Switch, Dst).
func (r *Routes) groupEnd(lo int) int {
	first := &r.Rules[r.index[lo]]
	hi := lo + 1
	for hi < len(r.index) {
		if rule := &r.Rules[r.index[hi]]; rule.Switch != first.Switch || rule.Dst != first.Dst {
			break
		}
		hi++
	}
	return hi
}

// Prime eagerly builds the lookup index and the compiled FIB so the
// route set can be shared read-only across concurrent simulations.
// Lookup and FIB otherwise build their structures lazily on first use,
// and two goroutines racing on that first build is a data race: a
// Routes shared across goroutines MUST be Primed (or have FIB/Lookup
// called once) before the fan-out. The parallel experiment sweeps do
// this serially up front and the race-tested suite
// (go test -race ./internal/core ./internal/experiments) runs every
// sweep at multiple worker counts to keep that contract honest.
func (r *Routes) Prime() {
	r.buildIndex()
	r.FIB()
}

// FIB returns the compiled forwarding table for this rule set, building
// it on first use. The result is invalidated (and recompiled on next
// call) whenever rules are added. See Prime for the concurrency
// contract around the lazy build.
func (r *Routes) FIB() *FIB {
	if r.fib == nil {
		r.fib = r.Compile()
	}
	return r.fib
}

// Lookup finds the most specific rule on switch sw for a packet
// arriving on logical port inPort with the given destination and tag.
// It returns nil when no rule applies.
//
// This is the reference implementation the compiled FIB is
// differential-tested against; the forwarding hot paths use
// FIB.Forward. It binary-searches the index (within the switch's run
// when sw is a vertex) for the (sw, dst) group and returns the group's
// first matching rule.
func (r *Routes) Lookup(sw, inPort, dst, tag int) *Rule {
	if r.swOff == nil {
		r.buildIndex()
	}
	idx, rules := r.index, r.Rules
	lo, hi := 0, len(idx)
	if uint(sw) < uint(len(r.swOff)-1) {
		lo, hi = int(r.swOff[sw]), int(r.swOff[sw+1])
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := &rules[idx[m]]; x.Switch < sw || x.Switch == sw && x.Dst < dst {
			lo = m + 1
		} else {
			hi = m
		}
	}
	for ; lo < len(idx); lo++ {
		rule := &rules[idx[lo]]
		if rule.Switch != sw || rule.Dst != dst {
			break
		}
		if rule.InPort != 0 && rule.InPort != inPort {
			continue
		}
		if rule.Tag != openflow.Any && rule.Tag != tag {
			continue
		}
		return rule
	}
	return nil
}

// portTo returns the logical port on switch `from` that leads to
// neighbour vertex `to`, or 0 if they are not adjacent.
func portTo(g *topology.Graph, from, to int) int {
	eid := g.EdgeBetween(from, to)
	if eid < 0 {
		return 0
	}
	return g.Edges[eid].PortAt(from)
}

// addPathRules installs dst-directed rules along a switch path
// path[0..n-1] terminating at host dst attached to path[n-1]. vcAt
// returns the VC tag a packet must carry when *leaving* hop i; pass nil
// for single-VC routing. Rules are tag-matched so multi-VC strategies
// stay consistent.
func addPathRules(r *Routes, g *topology.Graph, path []int, dst int, vcAt func(i int) int) {
	vc := func(i int) int {
		if vcAt == nil {
			return 0
		}
		return vcAt(i)
	}
	for i := 0; i < len(path); i++ {
		var out int
		if i == len(path)-1 {
			out = portTo(g, path[i], dst) // deliver to host
		} else {
			out = portTo(g, path[i], path[i+1])
		}
		inTag := 0
		if i > 0 {
			inTag = vc(i - 1)
		}
		outTag := inTag
		if i < len(path)-1 {
			outTag = vc(i)
		}
		newTag := -1
		if outTag != inTag {
			newTag = outTag
		}
		rule := Rule{Switch: path[i], InPort: 0, Dst: dst, Tag: inTag, OutPort: out, NewTag: newTag}
		// Avoid exact duplicates from overlapping dst trees.
		dup := false
		for _, ex := range r.Rules {
			if ex == rule {
				dup = true
				break
			}
		}
		if !dup {
			r.add(rule)
		}
	}
}

// computeWorkers is the worker count for per-destination route builds
// (0 = GOMAXPROCS, 1 = serial). The determinism test forces it above 1
// so the fan-out is exercised under -race even on single-CPU machines.
var computeWorkers = 0

// computeForDsts fans a strategy's rule builds over an explicit
// destination set: the per-destination builds run on the worker pool,
// each into its own bucket (pre-sized to one rule per switch, the
// common shape), and the buckets merge deterministically — scattered
// straight into switch-major order, bucket (dsts) order kept within
// each switch — so the merged rule list is independent of scheduling.
// Callers follow with sortRules, which keeps the final route set
// byte-identical to a serial build.
//
// build runs concurrently and must only read shared state; the graph's
// lazy caches (adjacency, CSR, host/switch lists) are primed here
// before the fan-out.
func computeForDsts(r *Routes, g *topology.Graph, dsts []int, build func(dst int, emit func(Rule)) error) error {
	g.CSR()
	g.Hosts()
	nsw := g.NumSwitches()
	perDst := make([][]Rule, len(dsts))
	err := par.For(context.TODO(), computeWorkers, len(dsts), func(hi int) error {
		// Each job owns exactly its destination's bucket element.
		perDst[hi] = make([]Rule, 0, nsw)
		return build(dsts[hi], func(rule Rule) { perDst[hi] = append(perDst[hi], rule) })
	})
	if err != nil {
		return err
	}
	rules, err := switchMajor(perDst, len(g.Vertices))
	if err != nil {
		return err
	}
	r.Rules = rules
	r.invalidate()
	return nil
}

// switchMajor is a stable counting sort by Switch: it concatenates the
// buckets and groups the rules by Switch, keeping their concatenated
// order within each switch. A Switch outside [0, nv) is an error.
func switchMajor(buckets [][]Rule, nv int) ([]Rule, error) {
	pos := make([]int, nv+1)
	for _, b := range buckets {
		for i := range b {
			if uint(b[i].Switch) >= uint(nv) {
				return nil, fmt.Errorf("routing: rule switch %d outside the graph", b[i].Switch)
			}
			pos[b[i].Switch+1]++
		}
	}
	for sw := 1; sw <= nv; sw++ {
		pos[sw] += pos[sw-1]
	}
	out := make([]Rule, pos[nv])
	for _, b := range buckets {
		for _, rule := range b {
			out[pos[rule.Switch]] = rule
			pos[rule.Switch]++
		}
	}
	return out, nil
}

// DstComputer is a Strategy whose route build is an independent pure
// function per destination host — true of every Table III strategy —
// letting callers compute rules for a *subset* of destinations.
// ComputeFor(g, subset) returns exactly the full route set restricted
// to those destinations (pinned by TestComputeForMatchesSubset); on
// fabrics too large to route in full — route sets grow as
// switches × hosts, ~GBs on a 10k-host fat-tree — a flow-level run
// needs rules only for the hosts that actually receive traffic, which
// is what keeps internal/flowsim's path resolution affordable there.
type DstComputer interface {
	Strategy
	// ComputeFor computes routes toward the given destination hosts
	// only. Destinations are deduplicated and sorted, so equal sets
	// produce byte-identical rule lists regardless of input order.
	ComputeFor(g *topology.Graph, dsts []int) (*Routes, error)
}

// dstBuilder is the per-strategy factory behind the shared compute
// driver: it validates the topology once and returns the
// per-destination rule build.
type dstBuilder func(g *topology.Graph) (build func(dst int, emit func(Rule)) error, err error)

// computeStrategy runs one strategy's per-destination builder over the
// given destinations (nil = every host) and finalises the route set.
func computeStrategy(g *topology.Graph, name string, vcs int, dsts []int, mk dstBuilder) (*Routes, error) {
	if dsts == nil {
		dsts = g.Hosts()
	} else {
		var err error
		if dsts, err = canonicalDsts(g, dsts); err != nil {
			return nil, fmt.Errorf("routing: %s: %w", name, err)
		}
	}
	build, err := mk(g)
	if err != nil {
		return nil, err
	}
	r := newRoutes(g, name, vcs)
	if err := computeForDsts(r, g, dsts, build); err != nil {
		return nil, err
	}
	sortRules(r)
	return r, nil
}

// canonicalDsts validates a destination subset (host vertices of g) and
// returns it sorted and deduplicated.
func canonicalDsts(g *topology.Graph, dsts []int) ([]int, error) {
	out := make([]int, 0, len(dsts))
	for _, d := range dsts {
		if d < 0 || d >= len(g.Vertices) || g.Vertices[d].Kind != topology.Host {
			return nil, fmt.Errorf("destination %d is not a host of %s", d, g.Name)
		}
		out = append(out, d)
	}
	slices.Sort(out)
	n := 0
	for i, d := range out {
		if i == 0 || d != out[i-1] {
			out[n] = d
			n++
		}
	}
	return out[:n], nil
}

// ShortestPath is the generic strategy: BFS trees rooted at every
// destination host's switch, deterministic tie-breaking by vertex ID.
// Single VC; deadlock-free only on acyclic-channel topologies (trees,
// fat-trees via up/down shape) — use VerifyDeadlockFree to check.
type ShortestPath struct{}

// Name implements Strategy.
func (ShortestPath) Name() string { return "shortest-path" }

// Compute implements Strategy.
func (ShortestPath) Compute(g *topology.Graph) (*Routes, error) {
	return computeStrategy(g, "shortest-path", 1, nil, shortestPathBuilder)
}

// ComputeFor implements DstComputer.
func (ShortestPath) ComputeFor(g *topology.Graph, dsts []int) (*Routes, error) {
	return computeStrategy(g, "shortest-path", 1, dsts, shortestPathBuilder)
}

// shortestPathBuilder returns the per-destination BFS-tree rule build.
func shortestPathBuilder(g *topology.Graph) (func(dst int, emit func(Rule)) error, error) {
	csr := g.CSR()
	nv := len(g.Vertices)
	return func(dst int, emit func(Rule)) error {
		root := g.HostSwitch(dst)
		if root < 0 {
			return fmt.Errorf("routing: host %d has no switch", dst)
		}
		// BFS from root over switches on the CSR view; next[v] = the
		// neighbour of v one hop closer to root. CSR rows are pre-
		// sorted by vertex ID, preserving the deterministic tie-break
		// without the per-dequeue clone+sort of the neighbour slice.
		next := make([]int32, nv)
		for i := range next {
			next[i] = -1
		}
		queue := make([]int32, 1, nv)
		next[root] = int32(root)
		queue[0] = int32(root)
		for qi := 0; qi < len(queue); qi++ {
			v := int(queue[qi])
			lo, hi := csr.Row(v)
			for e := lo; e < hi; e++ {
				o := csr.Nbr[e]
				if g.Vertices[o].Kind != topology.Switch || next[o] >= 0 {
					continue
				}
				next[o] = int32(v)
				queue = append(queue, o)
			}
		}
		for sw := 0; sw < nv; sw++ {
			if next[sw] < 0 {
				continue
			}
			var out int
			if sw == root {
				out = csr.PortTo(sw, dst)
			} else {
				out = csr.PortTo(sw, int(next[sw]))
			}
			if out == 0 {
				return fmt.Errorf("routing: no port from %d toward %d", sw, dst)
			}
			emit(Rule{Switch: sw, Dst: dst, Tag: openflow.Any, OutPort: out, NewTag: -1})
		}
		return nil
	}, nil
}

// cmpRuleKey is the canonical rule order: (Switch, Dst, Tag, InPort).
func cmpRuleKey(a, b Rule) int {
	return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Dst, b.Dst),
		cmp.Compare(a.Tag, b.Tag), cmp.Compare(a.InPort, b.InPort))
}

// sortRules puts the rules in cmpRuleKey order, stably. Strategy
// output usually arrives already in order (computeForDsts scatters it
// switch-major), so the sort is skipped after one linear check.
func sortRules(r *Routes) {
	if !slices.IsSortedFunc(r.Rules, cmpRuleKey) {
		slices.SortStableFunc(r.Rules, cmpRuleKey)
	}
	r.invalidate()
}

// CompileLogicalTables instantiates one OpenFlow switch per logical
// switch and installs the routes as flow entries — the configuration of
// a "full testbed" where every logical switch is a real switch. Port
// numbering follows the logical topology's ports. tableCap of 0 means
// unlimited.
func CompileLogicalTables(r *Routes, tableCap int) (map[int]*openflow.Switch, error) {
	g := r.Topo
	out := make(map[int]*openflow.Switch, g.NumSwitches())
	for _, s := range g.Switches() {
		maxPort := 0
		for _, eid := range g.IncidentEdges(s) {
			if p := g.Edges[eid].PortAt(s); p > maxPort {
				maxPort = p
			}
		}
		out[s] = openflow.NewSwitch(g.Vertices[s].Label, maxPort, tableCap)
	}
	for _, rule := range r.Rules {
		sw := out[rule.Switch]
		if sw == nil {
			return nil, fmt.Errorf("routing: rule references non-switch vertex %d", rule.Switch)
		}
		var actions []openflow.Action
		if rule.NewTag >= 0 {
			actions = append(actions, openflow.Action{Type: openflow.SetTag, Tag: rule.NewTag})
		}
		actions = append(actions, openflow.Action{Type: openflow.Output, Port: rule.OutPort})
		prio := 10
		if rule.InPort != 0 {
			prio += 4
		}
		if rule.Tag != openflow.Any {
			prio += 2
		}
		err := sw.Table.Add(openflow.FlowEntry{
			Priority: prio,
			Match: openflow.Match{
				InPort:  rule.InPort,
				SrcHost: openflow.Any,
				DstHost: rule.Dst,
				Tag:     rule.Tag,
			},
			Actions: actions,
		})
		if err != nil {
			return nil, err
		}
	}
	// Prime the lookup indices so the compiled tables can be probed
	// concurrently (the lazy first build is a write).
	for _, sw := range out {
		sw.Table.Prime()
	}
	return out, nil
}

// TracePath walks the rules from src host to dst host and returns the
// sequence of (switch, vc) hops, verifying termination. It is the
// loop/completeness checker used by tests and the deadlock verifier.
func (r *Routes) TracePath(src, dst int) ([]int, error) {
	g := r.Topo
	if src == dst {
		return nil, nil
	}
	cur := g.HostSwitch(src)
	if cur < 0 {
		return nil, fmt.Errorf("routing: source host %d unattached", src)
	}
	tag := 0
	inPort := portTo(g, cur, src)
	var path []int
	limit := len(g.Vertices)*r.NumVCs + 2
	for steps := 0; ; steps++ {
		if steps > limit {
			return nil, fmt.Errorf("routing: path %d->%d exceeds %d hops (loop?)", src, dst, limit)
		}
		path = append(path, cur)
		rule := r.Lookup(cur, inPort, dst, tag)
		if rule == nil {
			return nil, fmt.Errorf("routing: no rule on switch %d for dst %d tag %d", cur, dst, tag)
		}
		if rule.NewTag >= 0 {
			tag = rule.NewTag
		}
		// Find what the out port leads to.
		nxt := -1
		nxtPort := 0
		for _, eid := range g.IncidentEdges(cur) {
			e := g.Edges[eid]
			if e.PortAt(cur) == rule.OutPort {
				nxt = e.Other(cur)
				nxtPort = e.PortAt(nxt)
				break
			}
		}
		if nxt < 0 {
			return nil, fmt.Errorf("routing: switch %d out port %d dangling", cur, rule.OutPort)
		}
		if nxt == dst {
			return path, nil
		}
		if g.Vertices[nxt].Kind != topology.Switch {
			return nil, fmt.Errorf("routing: path %d->%d delivered to wrong host %d", src, dst, nxt)
		}
		cur = nxt
		inPort = nxtPort
	}
}
