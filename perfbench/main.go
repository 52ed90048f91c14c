// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed number of seconds, checks the simulated outputs,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. Run it from the root
// of a checkout through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload websearch-pkt --seed 1 --seconds 15 --trace 0
//
// perfbench/README.md records why each workload exists and which
// end-to-end metric each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// srcDir holds the benchmark's inputs, relative to the checkout root.
const srcDir = "perfbench"

// outDir receives traces and profiles, relative to the checkout root.
const outDir = ".bench_build/perfbench"

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value (0: a single measurement)
	info  bool    // printed in the table only, not in the result line
}

type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	order             []string
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name, unit string, v float64, n int) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n}
}

// info records a number the table shows with its sample count but the
// result line leaves out, because the metric is not defined on every
// workload.
func (r *report) info(name, unit string, v float64, n int) {
	r.set(name, unit, v, n)
	m := r.metrics[name]
	m.info = true
	r.metrics[name] = m
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) count(ops, failed int, failures []string) {
	r.attempted += ops
	r.failed += failed
	for _, f := range failures {
		if len(r.failures) < 10 {
			r.failures = append(r.failures, f)
		}
	}
}

// samples collects per-round values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// expected holds the seeds and result digests recorded for later
// re-checks (perfbench/expected.json).
type expected struct {
	DefaultSeed int64                        `json:"default_seed"`
	HeldOutSeed int64                        `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

func main() {
	name := flag.String("workload", "", "workload: mpi-sdt, websearch-pkt, websearch-flow or sdtd-mix")
	seed := flag.Int64("seed", 0, "workload seed (0: the default seed in perfbench/expected.json)")
	secs := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *secs, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, secs float64, traced bool) error {
	if secs <= 0 {
		return errors.New("-seconds must be positive")
	}
	// Every workload runs in this one process on at most two threads.
	runtime.GOMAXPROCS(2)
	var exp expected
	b, err := os.ReadFile(filepath.Join(srcDir, "expected.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if seed == 0 {
		seed = exp.DefaultSeed
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	want := exp.Digests[name][fmt.Sprint(seed)]
	budget := time.Duration(secs * float64(time.Second))
	ctx := context.Background()
	rep := newReport()
	var sim simRounder
	switch name {
	case "mpi-sdt":
		w, err := newMPISDT(seed, filepath.Join(srcDir, "topologies"))
		if err != nil {
			return err
		}
		sim = w
	case "websearch-pkt":
		sim = newWebsearchPkt(seed)
	case "websearch-flow":
		sim = newWebsearchFlow(seed)
	case "sdtd-mix":
		w := &sdtdMix{seed: seed, dir: outDir}
		if traced {
			err = w.traced(ctx, rep, budget, want, name)
		} else {
			err = w.measure(ctx, rep, budget, want)
		}
	default:
		return fmt.Errorf("unknown workload %q (mpi-sdt, websearch-pkt, websearch-flow, sdtd-mix)", name)
	}
	if sim != nil {
		if traced {
			err = tracedSim(ctx, sim, rep, budget, want, name, seed)
		} else {
			err = measureSim(ctx, sim, rep, budget, want)
		}
	}
	if err != nil {
		return err
	}
	// Peak RSS depends on when the collector runs, which host load
	// shifts (websearch-flow moves between ~300 and ~380 MB from run to
	// run), so it is reported but not bounded: a per-layer metric in the
	// traced run, a table line otherwise.
	if traced {
		rep.set("max_rss_mb", "MB", maxRSSMB(), 0)
	} else {
		rep.info("max_rss_mb", "MB", maxRSSMB(), 0)
	}
	rep.print(name, seed, traced)
	return nil
}

// print writes the human-readable table, then the result line.
func (r *report) print(name string, seed int64, traced bool) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("perfbench %s seed %d: %s metrics\n", name, seed, kind)
	names := append([]string(nil), r.order...)
	if traced {
		sort.Strings(names)
	}
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("  %-32s %14.6g %-6s n=%d\n", n, m.Value, m.Unit, m.n)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("  %-32s %14.6g %-6s n=%d\n", "failed_frac", frac, "ratio", r.attempted)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, f := range r.failures {
		fmt.Println("  FAILED:", f)
	}
	ms := map[string]metric{}
	for n, m := range r.metrics {
		if !m.info {
			ms[n] = m
		}
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, ms}
	b, _ := json.Marshal(out)
	fmt.Println(string(b))
}
