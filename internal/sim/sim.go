// Package sim provides the deterministic discrete-event core of the
// simulator: a virtual nanosecond clock and a binary-heap event queue.
//
// The machine model (internal/exec, run by internal/smp) advances the clock
// directly while the simulated CPU executes a trace, and schedules future work — DMA
// completions, asynchronous I/O completions, prefetch arrivals — as events.
// The fleet coordinator (internal/cluster) runs its request-lifecycle timers
// on an Engine too.
//
// Pending events live in a binary min-heap ordered by (At, seq), with each
// event's heap index kept in the event so Cancel is O(log n). The queue is
// small — a core holds a few DMA completions and wake-ups at a time — so
// the heap's few sift steps beat any bucketed structure.
//
// The tie-break order is load-bearing and frozen: events with equal At fire
// strictly in scheduling order (ascending seq). Every determinism anchor of
// the repository — the pinned one-core summary digests, seeded-fault repeats,
// `itsbench diff` at zero tolerance — depends on same-time completions,
// wake-ups and trace emissions interleaving exactly this way.
//
// # Memory discipline
//
// Fired events return to a free list on the Engine and are reused by later
// Schedule calls, so steady-state simulation allocates no event structs.
// Two consequences bind callers: (1) a *Event handle must not be Cancelled
// after its event fired — the struct may already belong to a newer event
// (the executor maintains this by dropping its PendingIO tracking entry in
// the same completion that fires); (2) reading At or Cancelled from a
// handle whose event fired is similarly stale. Cancelled events are NOT
// recycled — Cancel is rare (work-steal re-homing only) and the handle
// stays valid for Cancelled() queries. Hot paths schedule a Handler
// implemented on a long-lived struct instead of a closure, so scheduling
// itself allocates nothing either.
package sim

import "fmt"

// Time is a virtual timestamp in nanoseconds since the start of a run.
type Time int64

// Common durations, in virtual nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "3.000µs".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Handler is the allocation-free alternative to scheduling a closure: a
// long-lived struct implements Fire and is scheduled with ScheduleHandler.
type Handler interface {
	// Fire runs when the clock reaches the event's time.
	Fire(now Time)
}

// Event is a unit of future work: either fn or h runs when the clock
// reaches At.
type Event struct {
	At  Time
	fn  func(now Time)
	h   Handler
	seq uint64 // tie-break: FIFO among equal timestamps
	idx int32  // heap index; -1 once fired/recycled, -2 cancelled
}

// Cancelled reports whether the event was removed before firing. Only
// meaningful on a handle whose event has not fired (see the package
// comment's recycling rules).
func (e *Event) Cancelled() bool { return e.idx == -2 }

// Engine owns the virtual clock and the pending-event heap. The zero value
// is ready to use.
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	sched uint64
	// heap holds the pending events as a binary min-heap on (At, seq);
	// heap[i].idx == i.
	heap []*Event
	// free holds fired events for reuse.
	free []*Event
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// Scheduled returns the total number of events ever scheduled.
func (e *Engine) Scheduled() uint64 { return e.sched }

// Fired returns the total number of events that have run.
func (e *Engine) Fired() uint64 { return e.fired }

// newEvent validates at, takes an event from the free list (or allocates)
// and pushes it onto the heap.
func (e *Engine) newEvent(at Time) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.At = at
	ev.seq = e.seq
	e.seq++
	e.sched++
	e.heap = append(e.heap, ev)
	e.up(len(e.heap)-1, ev)
	return ev
}

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (at < Now) is a programming error and panics: the machine model must never
// generate causality violations. Returns a handle usable with Cancel.
func (e *Engine) Schedule(at Time, fn func(now Time)) *Event {
	ev := e.newEvent(at)
	ev.fn = fn
	ev.h = nil
	return ev
}

// ScheduleHandler queues h.Fire to run at absolute time at — the
// allocation-free form of Schedule for hot paths. Same past-time panic and
// Cancel semantics.
func (e *Engine) ScheduleHandler(at Time, h Handler) *Event {
	ev := e.newEvent(at)
	ev.fn = nil
	ev.h = h
	return ev
}

// ScheduleAfter queues fn to run delay nanoseconds from now.
func (e *Engine) ScheduleAfter(delay Time, fn func(now Time)) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.Schedule(e.now+delay, fn)
}

// before is the heap order: earlier At first, then scheduling order.
func before(a, b *Event) bool {
	return a.At < b.At || (a.At == b.At && a.seq < b.seq)
}

// up places ev, whose slot is heap index i, by sifting it toward the root.
func (e *Engine) up(i int, ev *Event) {
	h := e.heap
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].idx = int32(i)
		i = p
	}
	h[i] = ev
	ev.idx = int32(i)
}

// down places ev, whose slot is heap index i, by sifting it toward the
// leaves.
func (e *Engine) down(i int, ev *Event) {
	h := e.heap
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		h[i].idx = int32(i)
		i = c
	}
	h[i] = ev
	ev.idx = int32(i)
}

// remove unlinks the event at heap index i, refilling the slot with the
// last event.
func (e *Engine) remove(i int) {
	n := len(e.heap) - 1
	last := e.heap[n]
	e.heap[n] = nil
	e.heap = e.heap[:n]
	if i == n {
		return
	}
	if i > 0 && before(last, e.heap[(i-1)/2]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// Cancel removes a pending event so it never fires. Cancelling an event that
// was already cancelled is a no-op returning false — as is cancelling a
// handle whose event fired and was not yet reused, but holding a handle
// past its fire time is a caller bug (the struct is recycled; see the
// package comment).
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.idx < 0 {
		return false
	}
	e.remove(int(ev.idx))
	ev.idx = -2
	return true
}

// NextEventTime returns the timestamp of the earliest pending event and true,
// or (0, false) when the queue is empty.
func (e *Engine) NextEventTime() (Time, bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.heap[0].At, true
}

// Advance moves the clock forward by d without firing events. It panics if
// d is negative. Events that fall inside the skipped window remain pending;
// callers that need them processed use AdvanceTo/RunUntil instead. This is
// the fast path used while the CPU burns through compute gaps with no device
// activity outstanding.
func (e *Engine) Advance(d Time) {
	if d < 0 {
		panic("sim: negative Advance")
	}
	e.now += d
}

// AdvanceTo moves the clock to t (>= now), firing every event with At <= t in
// order. Event functions may schedule further events; those are honoured if
// they also fall at or before t.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) before now %v", t, e.now))
	}
	for len(e.heap) > 0 && e.heap[0].At <= t {
		e.fire()
	}
	if e.now < t {
		e.now = t
	}
}

// RunUntilIdle fires events in timestamp order until the queue is empty.
func (e *Engine) RunUntilIdle() {
	for len(e.heap) > 0 {
		e.fire()
	}
}

// StepOne fires exactly the earliest pending event (advancing the clock to
// it) and reports whether an event was fired.
func (e *Engine) StepOne() bool {
	if len(e.heap) == 0 {
		return false
	}
	e.fire()
	return true
}

// fire pops the earliest event, advances the clock, recycles the struct and
// runs the payload. The payload is read out before recycling so the event
// it schedules next may legally reuse the same struct.
func (e *Engine) fire() {
	ev := e.heap[0]
	e.remove(0)
	if ev.At > e.now {
		e.now = ev.At
	}
	e.fired++
	fn, h := ev.fn, ev.h
	ev.fn = nil
	ev.h = nil
	ev.idx = -1
	e.free = append(e.free, ev)
	if h != nil {
		h.Fire(e.now)
	} else {
		fn(e.now)
	}
}
