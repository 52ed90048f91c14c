package main

import (
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// the benchmark's side of the call.
type span struct {
	Name    string  `json:"name"`
	Run     int     `json:"run"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a root span
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
}

// tracer keeps spans in memory; write dumps them once the run ends. A
// nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new per-run id: spans of one round share it.
func (t *tracer) nextRun() { t.run++ }

func (t *tracer) now() float64 { return float64(time.Since(t.t0)) / float64(time.Microsecond) }

// do times fn as a span named name, nested under the innermost open
// span.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Run: t.run, ID: id, Parent: parent, StartUs: t.now()})
	t.open = append(t.open, id)
	err := fn()
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.EndUs = t.now()
	s.SelfUs += s.EndUs - s.StartUs
	if parent >= 0 {
		t.spans[parent].SelfUs -= s.EndUs - s.StartUs
	}
	return err
}

// perRun sums the durations (ms) of the spans with any of the given
// names within each run, in run order; runs without such a span are
// skipped.
func (t *tracer) perRun(names ...string) []float64 {
	sums := map[int]float64{}
	var order []int
	for _, s := range t.spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		if _, ok := sums[s.Run]; !ok {
			order = append(order, s.Run)
		}
		sums[s.Run] += (s.EndUs - s.StartUs) / 1000
	}
	out := make([]float64, len(order))
	for i, r := range order {
		out[i] = sums[r]
	}
	return out
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// merge appends another tracer's spans (recorded on another goroutine
// against the same clock), renumbering their ids.
func (t *tracer) merge(o *tracer) {
	off := len(t.spans)
	for _, s := range o.spans {
		s.ID += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		t.spans = append(t.spans, s)
	}
}
