package main

import (
	"fmt"
	"os/exec"
	"slices"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/routing"
)

// layerMetrics holds the per-layer metrics of a traced run. Every name
// is reported on every workload; a layer the workload does not use
// reads 0.
type layerMetrics struct {
	names []string
	m     map[string]metric
}

// modules are this repository's packages whose CPU share is reported.
var modules = []string{
	"topology", "routing", "partition", "projection", "openflow", "controller",
	"loadgen", "workload", "engine", "netsim", "flowsim", "telemetry", "core",
	"service", "experiments",
}

// topologyNames are the mpi-sdt topologies, whose deploys are reported
// one by one.
var topologyNames = []string{"fattree-k4", "dragonfly-a4-g9-h2", "torus2d-5x5"}

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{m: map[string]metric{}}
	add := func(unit string, names ...string) {
		for _, n := range names {
			l.names = append(l.names, n)
			l.m[n] = metric{Unit: unit}
		}
	}
	add("ms", "topology.build_ms", "routing.compute_ms")
	add("count", "routing.rules")
	add("ms", "routing.fib_compile_ms")
	add("ns", "routing.fib_ns_per_lookup")
	add("ms", "controller.deploy_ms", "controller.teardown_ms")
	for _, t := range topologyNames {
		add("ms", "controller.deploy_ms."+t)
	}
	add("count", "projection.entries")
	add("ms", "partition.cut_ms", "projection.project_ms", "projection.compile_ms",
		"loadgen.generate_ms", "workload.trace_ms", "netsim.build_ms")
	add("count", "engine.events")
	add("ns", "engine.ns_per_event", "engine.ns_per_event_at_depth")
	add("count", "engine.pending_mean", "engine.pending_max",
		"netsim.delivered_pkts", "netsim.drops", "netsim.pauses", "netsim.ecn_marks")
	add("ns", "netsim.ns_per_pkt")
	add("count", "flowsim.recomputes")
	add("ms", "flowsim.run_ms")
	add("us", "flowsim.us_per_recompute")
	add("ms", "telemetry.fct_ms", "core.overhead_ms")
	add("ms", "service.setup_ms", "service.queue_wait_ms", "service.exec_ms", "service.overhead_ms",
		"service.hit_p50_ms", "service.hit_p90_ms", "service.cold_p50_ms", "service.cold_p90_ms")
	add("1/s", "service.jobs_per_s")
	add("count", "service.cache_hits", "service.cache_misses")
	add("ratio", "service.hit_ratio")
	for _, mod := range modules {
		add("ratio", "cpu_share."+mod)
	}
	add("ratio", "cpu_share.gc", "cpu_share.malloc", "cpu_share.other")
	add("count", "gc.cycles")
	add("ms", "gc.pause_ms")
	add("ratio", "trace.overhead_frac")
	return l
}

func (l *layerMetrics) set(name string, v float64, n int) {
	m, ok := l.m[name]
	if !ok {
		panic("perfbench: undeclared layer metric " + name)
	}
	m.Value, m.n = v, n
	l.m[name] = m
}

// setSamples reports the median of per-round samples (nothing for none).
func (l *layerMetrics) setSamples(name string, v []float64) {
	if len(v) > 0 {
		l.set(name, median(v), len(v))
	}
}

func (l *layerMetrics) into(rep *report) {
	for _, n := range l.names {
		m := l.m[n]
		rep.set(n, m.Unit, m.Value, m.n)
	}
}

// cpuShares aggregates the CPU profile's samples with the toolchain's
// pprof. A sample whose leaf frame is the runtime allocating or
// collecting counts as malloc or gc; any other sample counts for the
// innermost frame that lies in one of the modules (so a stdlib sort
// called by routing counts as routing), and as other when none does.
func (l *layerMetrics) cpuShares(profile string) error {
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	total := 0.0
	for _, block := range strings.Split(string(out), "-----------+") {
		lines := strings.Split(block, "\n")
		if len(lines) < 2 {
			continue
		}
		first := strings.Fields(lines[1])
		if len(first) < 2 {
			continue
		}
		d, err := time.ParseDuration(first[0])
		if err != nil {
			continue
		}
		frames := []string{first[1]}
		for _, ln := range lines[2:] {
			if f := strings.Fields(ln); len(f) > 0 {
				frames = append(frames, f[0])
			}
		}
		shares[stackClass(frames)] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil
	}
	for class, v := range shares {
		l.set("cpu_share."+class, v/total, 0)
	}
	return nil
}

// stackClass attributes one sampled stack, leaf first.
func stackClass(frames []string) string {
	if c := runtimeClass(frames[0]); c != "" {
		return c
	}
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, "repro/internal/")
		if !ok {
			continue
		}
		mod, _, _ := strings.Cut(rest, ".")
		mod, _, _ = strings.Cut(mod, "/")
		if slices.Contains(modules, mod) {
			return mod
		}
	}
	for _, fn := range frames {
		if c := runtimeClass(fn); c == "gc" {
			return c
		}
	}
	return "other"
}

// runtimeClass names the runtime activity of a function: "malloc" for
// allocation, "gc" for collection, "" otherwise.
func runtimeClass(fn string) string {
	if !strings.HasPrefix(fn, "runtime.") {
		return ""
	}
	for _, s := range []string{"malloc", "nextFree", "mcache", "mcentral", "refill", "allocSpan",
		"growslice", "makeslice", "newobject", "newarray", "makemap", "memclrNoHeapPointers", "heapSetType"} {
		if strings.Contains(fn, s) {
			return "malloc"
		}
	}
	for _, s := range []string{"gc", "GC", "scan", "mark", "Mark", "sweep", "grey", "wbBuf", "Barrier",
		"scavenge", "findObject", "heapBits", "typePointers", "spanOf", "pageIndexOf"} {
		if strings.Contains(fn, s) {
			return "gc"
		}
	}
	return ""
}

// benchHandler keeps an engine's heap at a fixed depth: every fired
// event schedules one successor at a random later time.
type benchHandler struct {
	e      *engine.Engine
	rng    *loadgen.RNG
	spread int
}

func (h *benchHandler) OnEvent(now engine.Time, ev engine.Event) {
	h.e.Schedule(now+1+engine.Time(h.rng.Intn(h.spread)), h, ev)
}

// engineNsPerEvent measures one Schedule+Step pair at the given heap
// depth: the event queue's cost at the depth a workload runs at.
func engineNsPerEvent(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	e := engine.New()
	h := &benchHandler{e: e, rng: loadgen.NewRNG(1), spread: 1000 * depth}
	for i := 0; i < depth; i++ {
		e.Schedule(engine.Time(h.rng.Intn(h.spread)), h, engine.Event{})
	}
	for i := 0; i < 100000; i++ {
		e.Step()
	}
	const batch = 10000
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := 0; i < batch; i++ {
			e.Step()
		}
		n += batch
	}
	return float64(time.Since(t0)) / float64(n)
}

// fibSink keeps the lookups from being optimised away.
var fibSink int

// fibNsPerLookup times FIB.Forward over a workload's recorded hops.
func fibNsPerLookup(fib *routing.FIB, hops []hop) float64 {
	if len(hops) == 0 {
		return 0
	}
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		for _, h := range hops {
			out, _, _ := fib.Forward(h.sw, h.inPort, h.dst, h.tag)
			fibSink += out
		}
		n += len(hops)
	}
	return float64(time.Since(t0)) / float64(n)
}
