// Package sched implements the mini kernel's process scheduler: the Linux
// real-time round-robin class (SCHED_RR) with NICE-style time slices, as in
// the paper's §4.1 setup — "the time slice allocated to the highest and
// lowest priority processes is set to 800 ms and 5 ms".
//
// Processes share one ready queue and run in round-robin order; a process's
// priority determines how long its slice is, not whether it runs (the paper
// assigns priorities randomly and still expects every process to make
// progress, with ITS's self-sacrificing thread — not the scheduler —
// responsible for yielding low-priority CPU time).
//
// The ITS priority-aware thread selection policy (§3.2) "compares the
// priority value of the current running process against the next-to-be-run
// process"; NextToRun exposes exactly that lookup.
package sched

import (
	"fmt"

	"itsim/internal/sim"
)

// Paper §4.1 slice bounds.
const (
	// MaxSlice is the time slice of the highest-priority process.
	MaxSlice = 800 * sim.Millisecond
	// MinSlice is the time slice of the lowest-priority process.
	MinSlice = 5 * sim.Millisecond
)

// State is a process's scheduling state.
type State uint8

// Scheduling states.
const (
	// Ready means runnable, waiting in the queue.
	Ready State = iota
	// Running means currently on the CPU.
	Running
	// Blocked means waiting for asynchronous I/O.
	Blocked
	// Finished means the trace is exhausted.
	Finished
)

// String names the state.
func (s State) String() string {
	switch s {
	case Ready:
		return "ready"
	case Running:
		return "running"
	case Blocked:
		return "blocked"
	default:
		return "finished"
	}
}

type entry struct {
	pid      int
	priority int
	state    State
	slice    sim.Time
}

// Stats counts scheduler activity.
type Stats struct {
	ContextSwitches uint64
	SliceExpiries   uint64
	Blocks          uint64
	Wakeups         uint64
}

// RR is the round-robin scheduler.
type RR struct {
	// entries is indexed by pid; nil marks a pid that is not registered
	// (never added, or removed by a steal). registered counts the rest.
	entries    []*entry
	registered int
	// queue holds exactly the Ready pids, in dispatch order: a process
	// enters it on becoming Ready and leaves it when dispatched or removed.
	queue   []int
	running int // pid currently on CPU, or -1
	// priority range for slice mapping, fixed once processes are added.
	minPrio, maxPrio int
	// pinnedRange fixes the slice-mapping priority range independently of
	// the registered processes (SMP: every per-core runqueue maps against
	// the machine-global range so migration never changes a slice).
	pinnedRange  bool
	pinLo, pinHi int
	// slice range; defaults to the paper's 5 ms…800 ms. Scaled-down
	// traces scale these down with them (see machine.Config).
	minSlice, maxSlice sim.Time
	// strict selects true SCHED_RR semantics: the highest-priority ready
	// process always dispatches first, round-robin only among equals.
	// The default (false) is the paper's effective behaviour — a single
	// round-robin queue with priority-scaled slices (the NICE mechanism).
	strict bool
	stats  Stats
	// alive is an O(1) mirror of the entry states: it counts entries not
	// Finished (Runnable is the queue's length). The SMP coordinator polls
	// Alive/Runnable every step, so neither may scan the entries.
	alive int
	// observer, when set, is called on every state transition.
	observer func(pid int, from, to State)
}

// New returns an empty scheduler.
func New() *RR {
	return &RR{
		running:  -1,
		minSlice: MinSlice,
		maxSlice: MaxSlice,
	}
}

// SetObserver registers a callback invoked after every process state
// transition (the event-tracing layer hooks wake-ups through it). A nil
// observer disables notification.
func (s *RR) SetObserver(fn func(pid int, from, to State)) { s.observer = fn }

// transition applies a state change (callers check the from-state first),
// maintains the alive counter and notifies the observer.
func (s *RR) transition(e *entry, to State) {
	from := e.state
	e.state = to
	if to == Finished {
		s.alive--
	}
	if s.observer != nil {
		s.observer(e.pid, from, to)
	}
}

// SetStrictPriority switches dispatch to true SCHED_RR semantics: strict
// priority order, round-robin among equal priorities. An ablation knob —
// under strict priority low-priority processes starve until higher ones
// block or finish, which changes the Figure 5 dynamics substantially.
func (s *RR) SetStrictPriority(on bool) { s.strict = on }

// SetSliceRange overrides the NICE slice bounds (lowest-priority,
// highest-priority). The paper's traces run for minutes under 5 ms…800 ms
// slices; scaled-down traces preserve the rotation dynamics by scaling the
// bounds with the workload. Panics on a non-positive or inverted range.
func (s *RR) SetSliceRange(min, max sim.Time) {
	if min <= 0 || max < min {
		panic(fmt.Sprintf("sched: bad slice range [%v, %v]", min, max))
	}
	s.minSlice, s.maxSlice = min, max
	s.recomputeSlices()
}

// Add registers a process with the given priority (larger = higher
// priority) in the Ready state. Pids index the entry table, so they are
// small non-negative integers (dense within a batch).
func (s *RR) Add(pid, priority int) {
	for len(s.entries) <= pid {
		s.entries = append(s.entries, nil)
	}
	if s.entries[pid] != nil {
		panic(fmt.Sprintf("sched: duplicate pid %d", pid))
	}
	if s.registered == 0 {
		s.minPrio, s.maxPrio = priority, priority
	} else {
		if priority < s.minPrio {
			s.minPrio = priority
		}
		if priority > s.maxPrio {
			s.maxPrio = priority
		}
	}
	s.entries[pid] = &entry{pid: pid, priority: priority, state: Ready}
	s.registered++
	s.queue = append(s.queue, pid)
	s.alive++
	s.recomputeSlices()
}

// recomputeSlices maps each priority linearly onto [MinSlice, MaxSlice]
// across the priority range — the registered range by default, or the pinned
// range when SetPriorityRange fixed one (the NICE mechanism's effect).
func (s *RR) recomputeSlices() {
	lo, hi := s.minPrio, s.maxPrio
	if s.pinnedRange {
		lo, hi = s.pinLo, s.pinHi
	}
	span := hi - lo
	for _, e := range s.entries {
		if e == nil {
			continue
		}
		if span == 0 {
			e.slice = s.maxSlice
			continue
		}
		frac := float64(e.priority-lo) / float64(span)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		e.slice = s.minSlice + sim.Time(frac*float64(s.maxSlice-s.minSlice))
	}
}

// SetPriorityRange pins the slice-mapping priority range to [lo, hi] instead
// of the observed range of registered processes. Per-core SMP runqueues pin
// the machine-global range so every core maps priorities to slices
// identically and a migrating process keeps its slice. Panics on an inverted
// range.
func (s *RR) SetPriorityRange(lo, hi int) {
	if hi < lo {
		panic(fmt.Sprintf("sched: inverted priority range [%d, %d]", lo, hi))
	}
	s.pinnedRange = true
	s.pinLo, s.pinHi = lo, hi
	s.recomputeSlices()
}

// Priority returns pid's priority.
func (s *RR) Priority(pid int) int { return s.mustGet(pid).priority }

// SliceFor returns pid's time-slice length.
func (s *RR) SliceFor(pid int) sim.Time { return s.mustGet(pid).slice }

// StateOf returns pid's scheduling state.
func (s *RR) StateOf(pid int) State { return s.mustGet(pid).state }

// Stats returns a copy of the counters.
func (s *RR) Stats() Stats { return s.stats }

// Running returns the pid on the CPU, or -1.
func (s *RR) Running() int { return s.running }

func (s *RR) mustGet(pid int) *entry {
	if pid < 0 || pid >= len(s.entries) || s.entries[pid] == nil {
		panic(fmt.Sprintf("sched: unknown pid %d", pid))
	}
	return s.entries[pid]
}

// PickNext dispatches the process NextToRun names, marking it Running, and
// returns its pid; -1 when nothing is runnable. The caller is responsible
// for charging context-switch time when the dispatched process differs from
// the previously running one.
func (s *RR) PickNext() int {
	if s.running != -1 {
		panic(fmt.Sprintf("sched: PickNext while pid %d is running", s.running))
	}
	i := s.next()
	if i == -1 {
		return -1
	}
	pid := s.queue[i]
	s.queue = append(s.queue[:i], s.queue[i+1:]...)
	s.transition(s.entries[pid], Running)
	s.running = pid
	return pid
}

// next returns the queue index PickNext dispatches: the head, or under
// strict priority the highest-priority process, FIFO among equals; -1 when
// nothing is Ready.
func (s *RR) next() int {
	if len(s.queue) == 0 {
		return -1
	}
	best := 0
	if s.strict {
		for i, pid := range s.queue {
			if s.entries[pid].priority > s.entries[s.queue[best]].priority {
				best = i
			}
		}
	}
	return best
}

// NextToRun peeks at the next process PickNext would dispatch, without
// dispatching; -1 when nothing is ready. This is the "next-to-be-run
// process" the ITS priority-aware selection policy compares against (§3.2).
func (s *RR) NextToRun() int {
	if i := s.next(); i != -1 {
		return s.queue[i]
	}
	return -1
}

// Runnable returns the number of Ready processes (excluding the runner).
func (s *RR) Runnable() int { return len(s.queue) }

// Alive returns the number of unfinished processes. O(1): the SMP
// coordinator calls this (via Shared.Alive) once per step.
func (s *RR) Alive() int { return s.alive }

// Expire moves the running process to the queue tail (slice exhausted).
func (s *RR) Expire(pid int) {
	e := s.mustGet(pid)
	if e.state != Running {
		panic(fmt.Sprintf("sched: Expire on %s pid %d", e.state, pid))
	}
	s.transition(e, Ready)
	s.running = -1
	s.queue = append(s.queue, pid)
	s.stats.SliceExpiries++
	s.stats.ContextSwitches++
}

// Block parks the running process waiting on I/O.
func (s *RR) Block(pid int) {
	e := s.mustGet(pid)
	if e.state != Running {
		panic(fmt.Sprintf("sched: Block on %s pid %d", e.state, pid))
	}
	s.transition(e, Blocked)
	s.running = -1
	s.stats.Blocks++
	s.stats.ContextSwitches++
}

// Unblock makes a blocked process runnable again (I/O completed), appending
// it at the queue tail.
func (s *RR) Unblock(pid int) {
	e := s.mustGet(pid)
	if e.state != Blocked {
		panic(fmt.Sprintf("sched: Unblock on %s pid %d", e.state, pid))
	}
	s.transition(e, Ready)
	s.queue = append(s.queue, pid)
	s.stats.Wakeups++
}

// Remove deregisters a Ready process (work-stealing migration: the thief
// core removes the victim from the loaded core's runqueue before re-adding
// it to its own). Only Ready processes migrate — a Blocked process's wake-up
// event lives on its owning core's clock, and a Running or Finished one has
// nothing to steal. Panics on any other state.
func (s *RR) Remove(pid int) {
	e := s.mustGet(pid)
	if e.state != Ready {
		panic(fmt.Sprintf("sched: Remove on %s pid %d", e.state, pid))
	}
	s.entries[pid] = nil
	s.registered--
	s.alive--
	for i, q := range s.queue {
		if q == pid {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
}

// Finish retires the running process permanently.
func (s *RR) Finish(pid int) {
	e := s.mustGet(pid)
	if e.state != Running {
		panic(fmt.Sprintf("sched: Finish on %s pid %d", e.state, pid))
	}
	s.transition(e, Finished)
	s.running = -1
}

// Pids returns every registered pid in ascending order.
func (s *RR) Pids() []int {
	out := make([]int, 0, s.registered)
	for pid, e := range s.entries {
		if e != nil {
			out = append(out, pid)
		}
	}
	return out
}
