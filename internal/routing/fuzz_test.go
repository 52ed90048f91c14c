package routing

// FuzzFIBLookup: the compiled FIB must agree with the reference
// Routes.Lookup on EVERY (switch, inPort, dst, tag) tuple — including
// hostile ones (negative IDs, out-of-range vertices, absurd tags) —
// across every Table III strategy and a manual rule set exercising the
// spill and overflow paths. The differential tests in fib_test.go pin
// the reachable tuples; the fuzzer hunts the unreachable corners.
// CI runs this as a smoke (`go test -fuzz=FuzzFIBLookup -fuzztime=10s`).

import (
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/openflow"
	"repro/internal/topology"
)

// fuzzCtx is one (topology, routes) pair with its FIB pre-compiled.
type fuzzCtx struct {
	name   string
	routes *Routes
}

var (
	fuzzOnce sync.Once
	fuzzCtxs []fuzzCtx
)

func fuzzContexts(f *testing.F) []fuzzCtx {
	fuzzOnce.Do(func() {
		for _, g := range []*topology.Graph{
			topology.FatTree(4),
			topology.Dragonfly(4, 9, 2, 1),
			topology.Torus2D(4, 4, 1),
			topology.Mesh2D(3, 3, 1),
		} {
			r, err := ForTopology(g).Compute(g)
			if err != nil {
				f.Fatal(err)
			}
			r.Prime()
			fuzzCtxs = append(fuzzCtxs, fuzzCtx{name: g.Name, routes: r})
		}
		// A manual set with qualified rules (spill path) and rules whose
		// IDs fall outside the dense FIB array (overflow map).
		g := topology.Line(4, 1)
		m := NewManualRoutes(g, "fuzz-manual", 2)
		m.AddRule(Rule{Switch: 0, Dst: 4, Tag: openflow.Any, OutPort: 1, NewTag: -1})
		m.AddRule(Rule{Switch: 0, InPort: 2, Dst: 4, Tag: openflow.Any, OutPort: 3, NewTag: -1})
		m.AddRule(Rule{Switch: 1, Dst: 5, Tag: 1, OutPort: 2, NewTag: 0})
		m.AddRule(Rule{Switch: 1, Dst: 5, Tag: openflow.Any, OutPort: 4, NewTag: 1})
		m.AddRule(Rule{Switch: 99, Dst: 120, Tag: openflow.Any, OutPort: 7, NewTag: -1})
		m.AddRule(Rule{Switch: -3, Dst: 2, Tag: openflow.Any, OutPort: 9, NewTag: -1})
		m.Prime()
		fuzzCtxs = append(fuzzCtxs, fuzzCtx{name: "manual", routes: m})
	})
	return fuzzCtxs
}

func FuzzFIBLookup(f *testing.F) {
	ctxs := fuzzContexts(f)
	f.Add(uint8(0), 0, 0, 5, 0)
	f.Add(uint8(1), 3, 1, 40, 1)
	f.Add(uint8(2), 7, 2, 17, 2)
	f.Add(uint8(3), 4, 0, 9, 0)
	f.Add(uint8(4), 99, 0, 120, 5)
	f.Add(uint8(4), -3, -1, 2, -7)
	f.Fuzz(func(t *testing.T, sel uint8, sw, inPort, dst, tag int) {
		ctx := ctxs[int(sel)%len(ctxs)]
		r := ctx.routes
		rule := r.Lookup(sw, inPort, dst, tag)
		out, newTag, ok := r.FIB().Forward(sw, inPort, dst, tag)
		if rule == nil {
			if ok {
				t.Fatalf("%s: FIB forwards (%d,%d,%d,%d) -> (%d,%d) but Lookup misses",
					ctx.name, sw, inPort, dst, tag, out, newTag)
			}
			return
		}
		if !ok {
			t.Fatalf("%s: Lookup hits rule %+v for (%d,%d,%d,%d) but FIB misses",
				ctx.name, *rule, sw, inPort, dst, tag)
		}
		wantTag := tag
		if rule.NewTag >= 0 {
			wantTag = rule.NewTag
		}
		if out != rule.OutPort || newTag != wantTag {
			t.Fatalf("%s: (%d,%d,%d,%d): FIB (%d,%d) != Lookup (%d,%d)",
				ctx.name, sw, inPort, dst, tag, out, newTag, rule.OutPort, wantTag)
		}
		// FIB.Rule must return the very rule Lookup matched.
		if got := r.FIB().Rule(sw, inPort, dst, tag); got != rule {
			t.Fatalf("%s: FIB.Rule returned %+v, Lookup %+v", ctx.name, got, rule)
		}
	})
}

// FuzzRouteIndex differentially tests the route ordering and
// the sorted rule index on random manual rule sets — unsorted input,
// repeated (switch, dst) groups with mixed InPort/Tag specificity, exact
// duplicates, and negative or out-of-range IDs:
//   - sortRules must equal a sort.SliceStable under the canonical
//     (Switch, Dst, Tag, InPort) comparator, byte for byte;
//   - Lookup must equal a linear-scan oracle (most specific match, ties
//     to the lowest rule index) on every probed tuple, both before and
//     after sorting;
//   - FIB.Forward and FIB.Rule must agree with the same oracle.
//
// CI runs this as a smoke (`go test -fuzz=FuzzRouteIndex -fuzztime=10s`).
func FuzzRouteIndex(f *testing.F) {
	g := topology.Line(4, 1) // 8 vertices
	nv := len(g.Vertices)
	f.Add([]byte{})
	f.Add([]byte{0, 4, 0, 1, 0, 4, 5, 2, 0, 4, 2, 9, 0, 4, 7, 3})
	f.Add([]byte{3, 3, 1, 1, 3, 3, 1, 1, 2, 5, 0, 0, 1, 5, 6, 250, 0, 0, 4, 4})
	f.Add([]byte{11, 11, 3, 1, 0, 1, 255, 255, 9, 2, 4, 200, 1, 9, 8, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		var rules []Rule
		for i := 0; i+4 <= len(data) && len(rules) < 96; i += 4 {
			b := data[i : i+4]
			rule := Rule{
				Switch:  int(b[0])%(nv+4) - 2,
				Dst:     int(b[1])%(nv+4) - 2,
				InPort:  int(b[2] & 3),
				Tag:     int(b[2]>>2&3) - 1, // openflow.Any, 0, 1, 2
				OutPort: 1 + int(b[3]%4),
				NewTag:  int(b[3]/4%4) - 1,
			}
			if b[3] >= 0xf0 {
				rule.OutPort = 0x10000 // overflows the packed FIB encoding
			}
			rules = append(rules, rule)
		}

		want := slices.Clone(rules)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Switch != b.Switch {
				return a.Switch < b.Switch
			}
			if a.Dst != b.Dst {
				return a.Dst < b.Dst
			}
			if a.Tag != b.Tag {
				return a.Tag < b.Tag
			}
			return a.InPort < b.InPort
		})

		r := NewManualRoutes(g, "fuzz-index", 3)
		r.Rules = slices.Clone(rules)
		checkIndex(t, "unsorted", r)
		sortRules(r)
		if !slices.Equal(r.Rules, want) {
			t.Fatalf("sortRules:\n got %v\nwant %v", r.Rules, want)
		}
		checkIndex(t, "sorted", r)
	})
}

// checkIndex probes Lookup, FIB.Forward and FIB.Rule against the
// linear-scan oracle over a tuple range that covers every rule's IDs
// plus misses on both sides.
func checkIndex(t *testing.T, name string, r *Routes) {
	t.Helper()
	nv := len(r.Topo.Vertices)
	fib := r.Compile()
	at := func(rule *Rule) int { // rule index, -1 for a miss
		for i := range r.Rules {
			if &r.Rules[i] == rule {
				return i
			}
		}
		return -1
	}
	for sw := -3; sw < nv+3; sw++ {
		for dst := -3; dst < nv+3; dst++ {
			for inPort := 0; inPort <= 4; inPort++ {
				for tag := -1; tag <= 3; tag++ {
					want := lookupOracle(r.Rules, sw, inPort, dst, tag)
					if got := at(r.Lookup(sw, inPort, dst, tag)); got != want {
						t.Fatalf("%s: Lookup(%d,%d,%d,%d) = rule #%d, oracle #%d (rules %v)",
							name, sw, inPort, dst, tag, got, want, r.Rules)
					}
					if got := at(fib.Rule(sw, inPort, dst, tag)); got != want {
						t.Fatalf("%s: FIB.Rule(%d,%d,%d,%d) = rule #%d, oracle #%d (rules %v)",
							name, sw, inPort, dst, tag, got, want, r.Rules)
					}
					out, newTag, ok := fib.Forward(sw, inPort, dst, tag)
					if want < 0 {
						if ok {
							t.Fatalf("%s: FIB.Forward(%d,%d,%d,%d) hits, oracle misses", name, sw, inPort, dst, tag)
						}
						continue
					}
					rule := &r.Rules[want]
					wantTag := tag
					if rule.NewTag >= 0 {
						wantTag = rule.NewTag
					}
					if !ok || out != rule.OutPort || newTag != wantTag {
						t.Fatalf("%s: FIB.Forward(%d,%d,%d,%d) = (%d,%d,%v), oracle rule %+v",
							name, sw, inPort, dst, tag, out, newTag, ok, *rule)
					}
				}
			}
		}
	}
}

// lookupOracle is the specification Lookup implements, by linear scan:
// among the rules matching (sw, inPort, dst, tag), the index of the
// most specific (InPort-qualified over Tag-qualified over wildcard),
// ties going to the lowest index; -1 when none matches.
func lookupOracle(rules []Rule, sw, inPort, dst, tag int) int {
	best, bestSpec := -1, -1
	for i := range rules {
		x := &rules[i]
		if x.Switch != sw || x.Dst != dst ||
			x.InPort != 0 && x.InPort != inPort ||
			x.Tag != openflow.Any && x.Tag != tag {
			continue
		}
		spec := 0
		if x.InPort != 0 {
			spec += 2
		}
		if x.Tag != openflow.Any {
			spec++
		}
		if spec > bestSpec {
			best, bestSpec = i, spec
		}
	}
	return best
}
