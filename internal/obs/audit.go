package obs

import (
	"fmt"

	"itsim/internal/sim"
)

// Auditor is a sink that checks the machine's accounting invariants as the
// event stream flows past, instead of letting drift pass silently:
//
//   - virtual time is monotonically non-decreasing within a run;
//   - dispatch/leave events alternate correctly (no double dispatch, no
//     leave without a dispatch);
//   - time conservation: every nanosecond of virtual time is attributed to
//     exactly one of CPU occupancy (dispatch → Preempt/Block/ProcFinish),
//     context switching (EvContextSwitch.Dur) or scheduler idle
//     (EvSchedIdleBegin/End). At every EvDispatch and at EvRunEnd the
//     accounted total must equal the virtual clock — the machine's
//     ΣCPUTime + switch time + scheduler idle == makespan invariant,
//     checked continuously at dispatch granularity rather than once at
//     the end.
//
// A violation records the offending event and is reported through Err().
// The auditor's fold is the per-core time ledger: every simulated core
// (internal/exec) runs an Auditor on every run, internal/smp sets the
// core's CPU, switch and idle totals from Folded and fails the run loudly
// when a violation fires, and a trace replay (internal/replay) folds each
// core's recorded events through an Auditor of its own.
type Auditor struct {
	last       sim.Time
	dispatched bool
	dispatch   sim.Time
	dispatchP  int
	idleOpen   bool
	idleStart  sim.Time
	accounted  sim.Time
	cpuAcc     sim.Time
	switchAcc  sim.Time
	idleAcc    sim.Time
	events     uint64
	violations []Violation
}

// Violation is one failed invariant with the event that exposed it.
type Violation struct {
	Event Event
	Msg   string
}

// String renders the violation with its event context.
func (v Violation) String() string {
	return fmt.Sprintf("%s [event %s t=%v pid=%d va=%#x dur=%v cause=%q]",
		v.Msg, v.Event.Type, v.Event.Time, v.Event.PID, v.Event.VA, v.Event.Dur, v.Event.Cause)
}

// NewAuditor returns an auditor ready to observe a run.
func NewAuditor() *Auditor { return &Auditor{dispatchP: -1} }

// auditTypes are the events the machine must route to the auditor even when
// tracing is otherwise off.
var auditTypes = [NumTypes]bool{
	EvRunBegin:       true,
	EvRunEnd:         true,
	EvDispatch:       true,
	EvPreempt:        true,
	EvBlock:          true,
	EvProcFinish:     true,
	EvContextSwitch:  true,
	EvSchedIdleBegin: true,
	EvSchedIdleEnd:   true,
}

// Wants reports whether the auditor consumes this event type.
func (a *Auditor) Wants(t Type) bool { return a != nil && auditTypes[t] }

func (a *Auditor) fail(ev Event, format string, args ...any) {
	a.violations = append(a.violations, Violation{Event: ev, Msg: fmt.Sprintf(format, args...)})
}

// Write implements Sink.
func (a *Auditor) Write(ev Event) {
	a.events++
	if ev.Type == EvRunBegin {
		// A new run legitimately restarts the virtual clock.
		*a = Auditor{last: ev.Time, dispatchP: -1, events: a.events, violations: a.violations}
		return
	}
	if ev.Time < a.last {
		a.fail(ev, "virtual time went backwards: %v after %v", ev.Time, a.last)
	}
	a.last = ev.Time

	switch ev.Type {
	case EvDispatch:
		if a.dispatched {
			a.fail(ev, "dispatch of pid %d while pid %d still on CPU", ev.PID, a.dispatchP)
		}
		if a.idleOpen {
			a.fail(ev, "dispatch of pid %d inside an open scheduler-idle span", ev.PID)
		}
		if drift := ev.Time - a.accounted; drift != 0 {
			a.fail(ev, "time conservation broken at dispatch: clock %v but accounted %v (drift %v)",
				ev.Time, a.accounted, drift)
			a.accounted = ev.Time // resynchronize so one bug reports once
		}
		a.dispatched = true
		a.dispatch = ev.Time
		a.dispatchP = ev.PID
	case EvPreempt, EvBlock, EvProcFinish:
		if !a.dispatched {
			a.fail(ev, "%s of pid %d with no process on CPU", ev.Type, ev.PID)
			break
		}
		if ev.PID != a.dispatchP {
			a.fail(ev, "%s of pid %d but pid %d was dispatched", ev.Type, ev.PID, a.dispatchP)
		}
		occ := ev.Time - a.dispatch
		if ev.Dur != occ {
			a.fail(ev, "occupancy mismatch: event reports %v on CPU, dispatch span is %v", ev.Dur, occ)
		}
		a.accounted += occ
		a.cpuAcc += occ
		a.dispatched = false
		a.dispatchP = -1
	case EvContextSwitch:
		if a.dispatched {
			a.fail(ev, "context switch charged while pid %d is on CPU", a.dispatchP)
		}
		a.accounted += ev.Dur
		a.switchAcc += ev.Dur
	case EvSchedIdleBegin:
		if a.idleOpen {
			a.fail(ev, "scheduler-idle begin inside an open idle span")
		}
		if a.dispatched {
			a.fail(ev, "scheduler idle while pid %d is on CPU", a.dispatchP)
		}
		a.idleOpen = true
		a.idleStart = ev.Time
	case EvSchedIdleEnd:
		if !a.idleOpen {
			a.fail(ev, "scheduler-idle end without begin")
			break
		}
		a.accounted += ev.Time - a.idleStart
		a.idleAcc += ev.Time - a.idleStart
		a.idleOpen = false
	case EvRunEnd:
		a.CheckClosed(ev)
		if drift := ev.Time - a.accounted; drift != 0 {
			a.fail(ev, "time conservation broken at run end: makespan %v but accounted %v (drift %v)",
				ev.Time, a.accounted, drift)
		}
	default:
		// The auditor checks only the conservation-bearing events
		// (dispatch/occupancy/switch/idle); everything else — prefetch,
		// swap, fault-injection, gauges — carries no CPU-time accounting
		// and is deliberately ignored. The explicit default keeps the
		// event-exhaustiveness lint honest: adding an event kind
		// that SHOULD be audited means adding a case above, not relying
		// on silent fallthrough.
	}
}

// CheckClosed records a violation for each span still open when the run
// ends at ev: a process on the CPU or a scheduler-idle span. Write runs it
// at EvRunEnd before checking conservation against the core's final clock;
// a trace replay, which records only the run's makespan and not each
// core's final clock, runs it alone.
func (a *Auditor) CheckClosed(ev Event) {
	if a.dispatched {
		a.fail(ev, "run ended with pid %d still on CPU", a.dispatchP)
	}
	if a.idleOpen {
		a.fail(ev, "run ended inside an open scheduler-idle span")
	}
}

// OnCPU returns the pid dispatched on the core, and false when no process
// is on the CPU.
func (a *Auditor) OnCPU() (pid int, ok bool) { return a.dispatchP, a.dispatched }

// Close implements Sink; it returns the audit verdict like Err.
func (a *Auditor) Close() error { return a.Err() }

// Events returns how many events the auditor has observed.
func (a *Auditor) Events() uint64 { return a.events }

// Accounted returns the virtual time attributed so far.
func (a *Auditor) Accounted() sim.Time { return a.accounted }

// Folded returns the attributed time split by category — CPU occupancy
// (dispatch spans), context switching, and scheduler idle. On a clean run
// the three sum to Accounted(). They are the core's ledger: internal/smp
// copies them into metrics.Core at run end, and internal/replay reports
// them per core, so a replayed trace reconciles with the summary by
// construction.
func (a *Auditor) Folded() (cpu, sw, idle sim.Time) {
	if a == nil {
		return 0, 0, 0
	}
	return a.cpuAcc, a.switchAcc, a.idleAcc
}

// Violations returns every recorded violation.
func (a *Auditor) Violations() []Violation { return a.violations }

// Err summarizes the violations as an error, or nil when every invariant
// held.
func (a *Auditor) Err() error {
	if a == nil || len(a.violations) == 0 {
		return nil
	}
	return fmt.Errorf("obs: %d invariant violation(s); first: %s", len(a.violations), a.violations[0])
}
