// Package engine is a zero-allocation, cancellable discrete-event
// scheduler — the execution core under the packet-level simulator.
//
// Design, in the style of high-rate simulators:
//
//   - Events are typed records (a Handler interface plus an inline
//     payload), not heap-allocated closures. Scheduling an event in
//     steady state allocates nothing: records live in a slab recycled
//     through a free list, and the queue orders small {time, seq,
//     slot} items that carry their keys inline.
//   - The queue is a fixed set of fixed-delay FIFO lanes in front of a
//     4-ary heap. Simulation time never decreases and sequence numbers
//     only grow, so events scheduled with one delay d arrive already
//     sorted: a lane is an append-only slice with a head index. A
//     packet network schedules most events with a handful of exact
//     delays (wire arrival, transmit done, switch pipeline), so most
//     events never touch the heap. Any delay that finds neither a lane
//     of its own nor a free one goes to the heap. The next event is the
//     least of the heap root and the lane heads.
//   - Every scheduled event returns a Handle with O(1) Cancel. Cancel
//     frees the record at once and leaves its queue item behind; an
//     item whose sequence number no longer matches its record's is
//     stale and is dropped when it surfaces. Stale items are purged
//     once they outnumber live events by more than a fixed slack, so
//     producers that re-arm timers (TCP RTO, rate pacers) keep the
//     queue bounded.
//   - Equal-time events fire in scheduling order (time, then a
//     monotonic sequence number), so runs are bit-for-bit
//     deterministic.
//
// A closure convenience API (At/After) remains for cold paths such as
// measurement sampling; it rides the same typed machinery through an
// internal function-calling handler.
//
// Cancellation: Run can be stopped from outside the event loop via a
// cooperative stop flag (SetStop). The flag is checked every
// StopStride fired events — not per event — so the hot loop stays
// branch-cheap and a cancelled run halts within one stride.
package engine

import (
	"math/bits"
	"sync/atomic"
)

// Time is simulation time in picoseconds. Integer picoseconds make
// 10 Gbps arithmetic exact (0.8 ns/byte = 800 ps/byte) and cover ~106
// days in an int64.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a Time to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Event is the inline payload of a scheduled occurrence. Kind
// discriminates event types within one handler; A and B carry integer
// arguments and Ptr a single reference — enough for every event in the
// simulator without a per-event allocation.
type Event struct {
	Kind int32
	A, B int64
	Ptr  any
}

// Handler consumes fired events. Implementations are long-lived
// simulation objects (a network, a switch, a transport connection), so
// storing one in an event record never allocates.
type Handler interface {
	OnEvent(now Time, ev Event)
}

// Callback is a deferred handler invocation — a (Handler, Event) pair
// that APIs like mailboxes can store and schedule later via Post.
type Callback struct {
	H  Handler
	Ev Event
}

// funcHandler invokes a stored closure; it backs the At/After/FuncCB
// convenience API. The zero-size value boxes without allocating.
type funcHandler struct{}

func (funcHandler) OnEvent(_ Time, ev Event) { ev.Ptr.(func())() }

// FuncCB wraps a closure as a Callback.
func FuncCB(fn func()) Callback { return Callback{H: funcHandler{}, Ev: Event{Ptr: fn}} }

// Handle identifies a pending event for Cancel. The zero Handle is
// never live, so uninitialised fields are safe to cancel.
type Handle struct {
	slot int32
	gen  uint32
}

// record is one slab entry. seq is the sequence number the record is
// pending under (0 when free); gen increments on every release so
// stale Handles die.
type record struct {
	h   Handler
	ev  Event
	seq int64
	gen uint32
}

// item is one queue entry: the firing key inline, plus the record it
// fires. It is stale once its record's seq no longer matches.
type item struct {
	at   Time
	seq  int64
	slot int32
}

func (a item) before(b item) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

const (
	// numLanes is the number of fixed-delay FIFO lanes.
	numLanes = 8
	// fromHeap is the source index of the heap root, next to the lane
	// indices 0..numLanes-1.
	fromHeap = numLanes
	// staleSlack is how far stale items may outnumber live events
	// before Cancel purges them.
	staleSlack = 1024
)

// lane is a FIFO of items scheduled with one delay, sorted by
// construction; q[head:] is pending.
type lane struct {
	head int
	q    []item
}

// StopStride is the default number of events fired between checks of
// the cooperative stop flag during Run. Large enough that the check is
// free relative to event dispatch, small enough that cancellation
// lands in microseconds of wall clock.
const StopStride = 4096

// Engine is the scheduler. The zero value is ready to use; New exists
// as the conventional constructor.
type Engine struct {
	now   Time
	seq   int64
	fired int64
	live  int // pending events
	stale int // queued items of cancelled events
	recs  []record
	free  []int32
	heap  []item

	// laneD[i] is the delay lanes[i] serves; busy has bit i set while
	// lanes[i] is non-empty. An empty lane may be claimed for a new
	// delay. heads[i] caches the head item of busy lane i, and headLane
	// is the busy lane with the earliest head (any value while none is
	// busy).
	laneD    [numLanes]Time
	busy     uint8
	headLane int
	heads    [numLanes]item
	lanes    [numLanes]lane

	// stop, when non-nil, is polled every stride fired events by Run;
	// a true load makes Run return early (Stopped reports this).
	stop    *atomic.Bool
	stride  int64
	stopped bool
}

// New returns a scheduler at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events executed so far.
func (e *Engine) Events() int64 { return e.fired }

// Pending returns the number of scheduled, not-yet-fired events;
// cancelled events are not counted.
func (e *Engine) Pending() int { return e.live }

// NextAt returns the timestamp of the earliest pending event. ok is
// false when the queue is empty. Conservative parallel executors use
// this to pick the next safe window start without firing anything.
func (e *Engine) NextAt() (Time, bool) {
	it, src := e.next()
	return it.at, src >= 0
}

// Schedule arranges for h.OnEvent(ev) to run at absolute time t
// (clamped to now). Equal-time events run in scheduling order.
func (e *Engine) Schedule(t Time, h Handler, ev Event) Handle {
	if t < e.now {
		t = e.now
	}
	e.seq++
	var slot int32
	if n := len(e.free); n > 0 {
		slot = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.recs = append(e.recs, record{gen: 1})
		slot = int32(len(e.recs) - 1)
	}
	r := &e.recs[slot]
	r.h, r.ev, r.seq = h, ev, e.seq
	e.live++
	e.push(item{at: t, seq: e.seq, slot: slot})
	return Handle{slot: slot, gen: r.gen}
}

// ScheduleAfter schedules d after now.
func (e *Engine) ScheduleAfter(d Time, h Handler, ev Event) Handle {
	return e.Schedule(e.now+d, h, ev)
}

// Post schedules a stored Callback at absolute time t.
func (e *Engine) Post(t Time, cb Callback) Handle { return e.Schedule(t, cb.H, cb.Ev) }

// At schedules fn at absolute time t (closure convenience; cold paths).
func (e *Engine) At(t Time, fn func()) { e.Schedule(t, funcHandler{}, Event{Ptr: fn}) }

// After schedules fn d after now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Cancel removes a pending event so it never fires. It reports whether
// the event was still pending; cancelling an already-fired, already-
// cancelled, or zero Handle is a safe no-op.
func (e *Engine) Cancel(hd Handle) bool {
	if hd.gen == 0 || int(hd.slot) >= len(e.recs) || e.recs[hd.slot].gen != hd.gen {
		return false
	}
	e.release(hd.slot)
	e.live--
	if e.stale++; e.stale > e.live+staleSlack {
		e.purge()
	}
	return true
}

// release recycles a slot onto the free list, clearing references so
// the GC can reclaim payloads, and invalidates outstanding handles and
// queue items.
func (e *Engine) release(slot int32) {
	r := &e.recs[slot]
	r.h, r.ev, r.seq = nil, Event{}, 0
	r.gen++
	e.free = append(e.free, slot)
}

// Step runs the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	it, src := e.next()
	if src < 0 {
		return false
	}
	e.fire(it, src)
	return true
}

// fire dequeues it from src, advances the clock and dispatches it.
func (e *Engine) fire(it item, src int) {
	e.take(src)
	r := &e.recs[it.slot]
	h, ev := r.h, r.ev
	e.release(it.slot)
	e.live--
	e.now = it.at
	e.fired++
	h.OnEvent(e.now, ev)
}

// SetStop installs a cooperative cancellation flag: Run polls it every
// stride fired events (stride <= 0 means StopStride) and returns early
// once it loads true. A nil flag detaches cancellation. The flag is
// the only engine state ever touched from another goroutine, which is
// what makes an atomic sufficient.
func (e *Engine) SetStop(flag *atomic.Bool, stride int64) {
	if stride <= 0 {
		stride = StopStride
	}
	e.stop, e.stride = flag, stride
}

// Stopped reports whether the last Run returned because the stop flag
// was raised (as opposed to draining the queue or hitting its limit).
// It keeps reporting the last run's outcome after the flag is
// detached.
func (e *Engine) Stopped() bool { return e.stopped }

// Run executes events until the queue drains or the time limit passes
// (limit 0 = no limit). If a stop flag is installed (SetStop), it is
// checked before the first event and then every stride events, so a
// cancelled run halts within one stride. Run returns the final
// simulation time.
func (e *Engine) Run(limit Time) Time {
	e.stopped = false
	if e.stop != nil && e.stop.Load() {
		e.stopped = true
		return e.now
	}
	check := e.fired + e.stride
	for {
		it, src := e.next()
		if src < 0 {
			break
		}
		if limit > 0 && it.at > limit {
			e.now = limit
			break
		}
		e.fire(it, src)
		if e.stop != nil && e.fired >= check {
			if e.stop.Load() {
				e.stopped = true
				break
			}
			check = e.fired + e.stride
		}
	}
	return e.now
}

// --- queue: fixed-delay lanes in front of a 4-ary heap ----------------

// push enqueues it on the lane serving its delay, else on a free lane
// claimed for that delay, else on the heap.
func (e *Engine) push(it item) {
	d := it.at - e.now
	free := -1
	for i, ld := range e.laneD {
		if ld == d {
			e.laneAppend(i, it)
			return
		}
		if free < 0 && e.busy&(1<<i) == 0 {
			free = i
		}
	}
	if free >= 0 {
		e.laneD[free] = d
		e.laneAppend(free, it)
		return
	}
	e.heapPush(it)
}

// laneAppend appends it to lanes[i], first sliding the pending items
// down when the slice is full and its head has passed half its length,
// so a lane's capacity stays within a small factor of its contents.
func (e *Engine) laneAppend(i int, it item) {
	l := &e.lanes[i]
	if len(l.q) == cap(l.q) && l.head > 0 && 2*l.head >= len(l.q) {
		l.q = l.q[:copy(l.q, l.q[l.head:])]
		l.head = 0
	}
	l.q = append(l.q, it)
	if e.busy&(1<<i) == 0 {
		e.heads[i] = it
		if e.busy == 0 || it.before(e.heads[e.headLane]) {
			e.headLane = i
		}
		e.busy |= 1 << i
	}
}

// next returns the earliest live item and its source (a lane index or
// fromHeap), dropping the stale items it finds on the way; src is -1
// when nothing is pending.
func (e *Engine) next() (it item, src int) {
	if e.live == 0 {
		return item{}, -1
	}
	for {
		src = -1
		if len(e.heap) > 0 {
			it, src = e.heap[0], fromHeap
		}
		if e.busy != 0 {
			if h := e.heads[e.headLane]; src < 0 || h.before(it) {
				it, src = h, e.headLane
			}
		}
		if e.recs[it.slot].seq == it.seq {
			return it, src
		}
		e.take(src)
		e.stale--
	}
}

// take removes the front item of src.
func (e *Engine) take(src int) {
	if src == fromHeap {
		e.heapPop()
		return
	}
	l := &e.lanes[src]
	if l.head++; l.head == len(l.q) {
		l.head, l.q = 0, l.q[:0]
		e.busy &^= 1 << src
	} else {
		e.heads[src] = l.q[l.head]
	}
	e.headLane = e.earliestLane()
}

// earliestLane returns the busy lane with the earliest head (0 when
// none is busy).
func (e *Engine) earliestLane() int {
	best := bits.TrailingZeros8(e.busy) & (numLanes - 1)
	for m := e.busy & (e.busy - 1); m != 0; m &= m - 1 {
		if i := bits.TrailingZeros8(m); e.heads[i].before(e.heads[best]) {
			best = i
		}
	}
	return best
}

// purge drops every stale item: lanes keep their order, the heap is
// rebuilt bottom-up.
func (e *Engine) purge() {
	isLive := func(it item) bool { return e.recs[it.slot].seq == it.seq }
	h := e.heap[:0]
	for _, it := range e.heap {
		if isLive(it) {
			h = append(h, it)
		}
	}
	e.heap = h
	for i := (len(h) - 2) / 4; i >= 0 && len(h) > 1; i-- {
		siftDown(h, i, h[i])
	}
	for i := range e.lanes {
		l := &e.lanes[i]
		q := l.q[:0]
		for _, it := range l.q[l.head:] {
			if isLive(it) {
				q = append(q, it)
			}
		}
		l.head, l.q = 0, q
		if len(q) == 0 {
			e.busy &^= 1 << i
		} else {
			e.heads[i] = q[0]
		}
	}
	e.headLane = e.earliestLane()
	e.stale = 0
}

func (e *Engine) heapPush(it item) {
	h := append(e.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !it.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	e.heap = h
}

func (e *Engine) heapPop() {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		siftDown(e.heap, 0, last)
	}
}

// siftDown places it at index i of h, or below it, restoring heap order
// by moving the hole down past smaller children.
func siftDown(h []item, i int, it item) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(it) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = it
}
