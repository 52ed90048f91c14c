package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// The delays a packet network schedules most: cut-through wire arrival
// (100 ns propagation plus header serialisation), MTU transmit-done
// (4162 B at 10 Gb/s) and switch pipeline plus crossbar.
const (
	wireDelay     = 204 * Nanosecond
	txDoneDelay   = 3329600 * Picosecond
	pipelineDelay = 452025 * Picosecond
)

// queueDelays returns a cyclic table of scheduling delays. "netsim-mix"
// replays the delay mix of a packet run (31% wire arrival, 31% transmit
// done, 24% pipeline, the rest random); "random" draws every delay
// uniformly from [1 ns, 10 µs).
func queueDelays(mix string) []Time {
	rng := rand.New(rand.NewSource(1))
	d := make([]Time, 4096)
	for i := range d {
		p := rng.Intn(100)
		switch {
		case mix == "netsim-mix" && p < 31:
			d[i] = wireDelay
		case mix == "netsim-mix" && p < 62:
			d[i] = txDoneDelay
		case mix == "netsim-mix" && p < 86:
			d[i] = pipelineDelay
		default:
			d[i] = Nanosecond + Time(rng.Int63n(int64(10*Microsecond-Nanosecond)))
		}
	}
	return d
}

// mixHandler schedules one successor per fired event, keeping the queue
// depth constant.
type mixHandler struct {
	e      *Engine
	delays []Time
	next   int
}

func (h *mixHandler) OnEvent(now Time, _ Event) { h.schedule(now) }

func (h *mixHandler) schedule(now Time) {
	h.e.Schedule(now+h.delays[h.next], h, Event{})
	h.next = (h.next + 1) % len(h.delays)
}

// BenchmarkQueue measures one event (fire plus one Schedule) at a fixed
// queue depth, through Schedule and Step only.
func BenchmarkQueue(b *testing.B) {
	for _, mix := range []string{"netsim-mix", "random"} {
		for _, depth := range []int{32, 512} {
			b.Run(fmt.Sprintf("%s/depth=%d", mix, depth), func(b *testing.B) {
				h := &mixHandler{e: New(), delays: queueDelays(mix)}
				for i := 0; i < depth; i++ {
					h.schedule(0)
				}
				for i := 0; i < 8*len(h.delays); i++ {
					h.e.Step()
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.e.Step()
				}
			})
		}
	}
}
