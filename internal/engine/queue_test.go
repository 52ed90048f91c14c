package engine

import (
	"math/rand"
	"sort"
	"testing"
)

// refItem is one pending event of the reference queue; seq doubles as
// the event's identifier (Event.A).
type refItem struct {
	at  Time
	seq int64
}

// queueChecker drives the engine and a sorted (at, seq) reference with
// one op stream and fails on the first divergence.
type queueChecker struct {
	t       testing.TB
	e       *Engine
	ref     []refItem // sorted by (at, seq)
	handles []Handle  // by seq
	seq     int64
	lastAt  Time
}

func (c *queueChecker) OnEvent(now Time, ev Event) {
	if len(c.ref) == 0 {
		c.t.Fatalf("event %d fired at %d with the reference empty", ev.A, now)
	}
	if want := c.ref[0]; want.at != now || want.seq != ev.A {
		c.t.Fatalf("fired (%d, %d), want (%d, %d)", now, ev.A, want.at, want.seq)
	}
	c.ref = c.ref[1:]
	c.lastAt = now
}

// schedule adds an event d after now to the engine; tracked events
// enter the reference too.
func (c *queueChecker) schedule(d Time, tracked bool) int64 {
	c.seq++
	at := c.e.Now() + d
	c.handles = append(c.handles, c.e.Schedule(at, c, Event{A: c.seq}))
	if tracked {
		// Every pending event has a smaller seq, so the new one goes
		// after all events at the same time.
		i := sort.Search(len(c.ref), func(i int) bool { return c.ref[i].at > at })
		c.ref = append(c.ref, refItem{})
		copy(c.ref[i+1:], c.ref[i:])
		c.ref[i] = refItem{at: at, seq: c.seq}
	}
	return c.seq
}

// cancel cancels event id and checks Cancel's result against the
// reference.
func (c *queueChecker) cancel(id int64) {
	k := -1
	for i, r := range c.ref {
		if r.seq == id {
			k = i
		}
	}
	if got := c.e.Cancel(c.handles[id]); got != (k >= 0) {
		c.t.Fatalf("Cancel(%d) = %v, want %v", id, got, k >= 0)
	}
	if k >= 0 {
		c.ref = append(c.ref[:k], c.ref[k+1:]...)
	}
}

// check compares NextAt and Pending with the reference and audits the
// queue's internal invariants.
func (c *queueChecker) check() {
	e := c.e
	at, ok := e.NextAt()
	if ok != (len(c.ref) > 0) || (ok && at != c.ref[0].at) {
		c.t.Fatalf("NextAt = (%d, %v), reference %v", at, ok, c.ref[:min(len(c.ref), 1)])
	}
	if e.Pending() != len(c.ref) {
		c.t.Fatalf("Pending = %d, reference %d", e.Pending(), len(c.ref))
	}
	live := func(it item) bool { return e.recs[it.slot].seq == it.seq }
	queued, stale := 0, 0
	for i := range e.lanes {
		l := &e.lanes[i]
		if busy := e.busy&(1<<i) != 0; busy != (l.head < len(l.q)) {
			c.t.Fatalf("lane %d: busy bit %v with %d queued", i, busy, len(l.q)-l.head)
		}
		for j := l.head; j < len(l.q); j++ {
			if j > l.head && !l.q[j-1].before(l.q[j]) {
				c.t.Fatalf("lane %d out of order at %d", i, j)
			}
			if l.q[j].at < e.now {
				c.t.Fatalf("lane %d holds an item before now", i)
			}
			queued++
			if !live(l.q[j]) {
				stale++
			}
		}
	}
	for i, it := range e.heap {
		if i > 0 && it.before(e.heap[(i-1)/4]) {
			c.t.Fatalf("heap order violated at %d", i)
		}
		queued++
		if !live(it) {
			stale++
		}
	}
	if queued != e.live+e.stale || stale != e.stale {
		c.t.Fatalf("queued %d items, %d stale; engine counts %d live, %d stale", queued, stale, e.live, e.stale)
	}
	if e.stale > e.live+staleSlack {
		c.t.Fatalf("%d stale items exceed %d live + %d", e.stale, e.live, staleSlack)
	}
}

// fuzzDelays mixes the packet network's exact delays with others; there
// are more of them than lanes, so some spill to the heap.
var fuzzDelays = []Time{
	wireDelay, txDoneDelay, pipelineDelay, 0, 1, 13 * Nanosecond,
	Microsecond, 5 * Microsecond, 2 * Millisecond, 7,
}

// runQueueOps interprets data as (op, arg) byte pairs.
func runQueueOps(t testing.TB, data []byte) {
	c := &queueChecker{t: t, e: New(), handles: []Handle{{}}}
	for len(data) >= 2 {
		op, arg := data[0]%10, int(data[1])
		data = data[2:]
		switch op {
		case 0, 1, 2, 3: // fixed delay: fills, claims and empties lanes
			c.schedule(fuzzDelays[arg%len(fuzzDelays)], true)
		case 4: // arbitrary delay: mostly the heap
			c.schedule(Time(arg*arg*131+arg), true)
		case 5:
			n := len(c.ref)
			if c.e.Step() != (n > 0) {
				t.Fatalf("Step disagrees with a reference of %d", n)
			}
		case 6:
			before := c.e.Now()
			limit := before + Time(arg)*50*Nanosecond + 1
			c.lastAt = before
			c.e.Run(limit)
			if len(c.ref) > 0 && c.ref[0].at <= limit {
				t.Fatalf("Run(%d) left an event at %d", limit, c.ref[0].at)
			}
			want := c.lastAt
			if len(c.ref) > 0 {
				want = limit
			}
			if c.e.Now() != want {
				t.Fatalf("Run(%d): now = %d, want %d", limit, c.e.Now(), want)
			}
		case 7: // cancel a lane head, a lane middle or the heap root
			var it item
			switch k := arg / 4 % numLanes; arg % 3 {
			case 0, 1:
				l := &c.e.lanes[k]
				if l.head == len(l.q) {
					continue
				}
				it = l.q[l.head]
				if arg%3 == 1 {
					it = l.q[(l.head+len(l.q))/2]
				}
			case 2:
				if len(c.e.heap) == 0 {
					continue
				}
				it = c.e.heap[0]
			}
			c.cancel(it.seq)
		case 8: // cancel any event by id: pending, fired or cancelled
			if c.seq > 0 {
				c.cancel(1 + int64(arg)%c.seq)
			}
		case 9: // a burst of scheduled-then-cancelled events
			for i := 0; i < 16+arg/4; i++ {
				id := c.schedule(fuzzDelays[(arg+i)%len(fuzzDelays)], false)
				if !c.e.Cancel(c.handles[id]) {
					t.Fatalf("Cancel of a fresh event %d failed", id)
				}
			}
		}
		c.check()
	}
	c.e.Run(0)
	if len(c.ref) != 0 {
		t.Fatalf("%d events never fired", len(c.ref))
	}
	c.check()
}

// FuzzQueueOrder checks that the lanes and the heap together fire
// events in exact (time, seq) order under any mix of fixed and
// arbitrary delays, Step, Run(limit) and Cancel.
func FuzzQueueOrder(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 2048)
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 0, 0, 1, 0, 2, 4, 9, 7, 0, 7, 1, 7, 2, 5, 0, 6, 3, 9, 200, 9, 255, 5, 0})
	// Enough cancelled bursts in a row to force a purge.
	purge := []byte{0, 0, 0, 1, 4, 77, 0, 2}
	for i := 0; i < 40; i++ {
		purge = append(purge, 9, 255)
	}
	f.Add(append(purge, 5, 0, 7, 0, 6, 9))
	f.Fuzz(func(t *testing.T, data []byte) { runQueueOps(t, data) })
}

// rearmer is one TCP-like connection: every tick re-arms its
// retransmission timer (cancel the pending one, schedule a fresh one
// rto later), so nearly every timer is cancelled before it fires.
type rearmer struct {
	e        *Engine
	rto      Handle
	ticks    int
	timeouts int
}

const rearmRTO = 2 * Millisecond

func (r *rearmer) OnEvent(now Time, ev Event) {
	if ev.Kind == 1 {
		r.timeouts++
		return
	}
	r.e.Cancel(r.rto)
	r.rto = r.e.ScheduleAfter(rearmRTO, r, Event{Kind: 1})
	if r.ticks--; r.ticks > 0 {
		d := wireDelay
		if ev.A%2 == 1 {
			d = txDoneDelay
		}
		r.e.ScheduleAfter(d, r, Event{A: ev.A + 1})
	}
}

// TestCancelHeavyRearmStaysBounded pins lazy deletion's memory bound
// under the TCP RTO pattern: stale items never exceed live + slack, and
// no lane grows beyond a small multiple of what it may hold.
func TestCancelHeavyRearmStaysBounded(t *testing.T) {
	const conns, ticks = 64, 2000
	e := New()
	rs := make([]*rearmer, conns)
	for i := range rs {
		rs[i] = &rearmer{e: e, ticks: ticks}
		e.Schedule(Time(i)*Nanosecond, rs[i], Event{A: int64(i)})
	}
	maxCap := 0
	for e.Step() {
		if e.stale > e.live+staleSlack {
			t.Fatalf("%d stale items exceed %d live + %d", e.stale, e.live, staleSlack)
		}
		for i := range e.lanes {
			maxCap = max(maxCap, cap(e.lanes[i].q))
		}
	}
	// At most 2 pending events per connection, plus the slack of stale
	// items, and append's growth factor on top.
	if bound := 4 * (2*conns + staleSlack); maxCap > bound {
		t.Errorf("a lane grew to capacity %d, bound %d", maxCap, bound)
	}
	for i, r := range rs {
		if r.timeouts != 1 {
			t.Errorf("conn %d: %d timeouts fired, want only the final one", i, r.timeouts)
		}
	}
	if want := int64(conns * (ticks + 1)); e.Events() != want {
		t.Errorf("fired %d events, want %d", e.Events(), want)
	}
}
