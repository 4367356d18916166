// Package sim is a fixture stand-in for the real virtual-time package: the
// Time type for the vtime analyzer, plus event-core-shaped code for
// entropyflow's source ban — sim is in the deterministic set (the event
// core's same-time ordering is the determinism anchor), so wall clocks and
// map ranges here must be flagged while a pure slice walk passes.
package sim

import "time"

// Time is a virtual timestamp in nanoseconds (fixture copy).
type Time int64

// Fixture copies of the duration constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// event is a fixture event-core entry.
type event struct {
	at  Time
	seq uint64
}

// engine is a fixture event core: a bucket array plus a free list.
type engine struct {
	buckets [][]*event
	byID    map[uint64]*event
	free    []*event
}

// wallStamp is the violation an event core must never contain: stamping
// events from the host clock instead of virtual time.
func (e *engine) wallStamp() Time {
	return Time(time.Now().UnixNano()) // want `call to time\.Now in deterministic package itsim/internal/sim`
}

// drainByID iterates a map: event firing order would depend on Go's map
// hashing, breaking same-time FIFO — flagged.
func (e *engine) drainByID() []*event {
	var out []*event
	for _, ev := range e.byID { // want `range over map map\[uint64\]\*itsim/internal/sim\.event in deterministic package`
		out = append(out, ev)
	}
	return out
}

// earliest is the clean polarity: a pure slice walk with an explicit
// (at, seq) tie-break — no diagnostics.
func (e *engine) earliest() *event {
	var best *event
	for _, b := range e.buckets {
		for _, ev := range b {
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
	}
	return best
}

// recycle is the clean polarity for the pool: free lists are plain slices,
// nothing to suppress.
func (e *engine) recycle(ev *event) {
	*ev = event{}
	e.free = append(e.free, ev)
}
