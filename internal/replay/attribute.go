package replay

import (
	"fmt"
	"io"
	"sort"

	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/sim"
)

// Attribution is the folded result of one trace: one section per run (a
// trace may carry several back-to-back runs).
type Attribution struct {
	Runs []*RunAttribution `json:"runs"`
}

// RunAttribution is one run's folded virtual-time accounting.
type RunAttribution struct {
	// Label is the run's EvRunBegin cause, conventionally "policy/batch".
	Label string `json:"label"`
	// Makespan is the EvRunEnd timestamp.
	Makespan sim.Time `json:"makespan_ns"`
	// Events counts every event of the run including the run markers.
	Events uint64 `json:"events"`
	// Cores holds the per-core folds, ascending by core id. Only cores
	// that emitted at least one event appear.
	Cores []*CoreAttr `json:"cores"`

	// counts tallies events by type for diffing and the folded footer.
	counts [obs.NumTypes]uint64
}

// CoreAttr is one core's fold: the three conservation categories plus the
// per-pid split of the CPU category.
type CoreAttr struct {
	Core       int         `json:"core"`
	CPUTime    sim.Time    `json:"cpu_time_ns"`
	SwitchTime sim.Time    `json:"context_switch_time_ns"`
	IdleTime   sim.Time    `json:"scheduler_idle_ns"`
	Dispatches uint64      `json:"dispatches"`
	Switches   uint64      `json:"switches"`
	IdleSpans  uint64      `json:"idle_spans"`
	Procs      []*ProcAttr `json:"procs"`
}

// Total is the core's attributed virtual time (== its local clock on a
// clean trace).
func (c *CoreAttr) Total() sim.Time { return c.CPUTime + c.SwitchTime + c.IdleTime }

// ProcAttr splits one process's CPU occupancy on one core. A process that
// migrates appears under every core it ran on. The identity
// CPUTime == Execute + FaultWait + PrefetchWalk + Preexec + Recovery
// holds exactly: Execute is occupancy outside synchronous fault windows,
// FaultWait the un-stolen residual of those windows (handler entry, device
// wait the policy could not use), and the last three are the stolen parts —
// the paper's "stolen idle" made visible per process.
type ProcAttr struct {
	PID          int      `json:"pid"`
	Name         string   `json:"name,omitempty"`
	CPUTime      sim.Time `json:"cpu_time_ns"`
	Execute      sim.Time `json:"execute_ns"`
	FaultWait    sim.Time `json:"fault_wait_ns"`
	PrefetchWalk sim.Time `json:"prefetch_walk_ns"`
	Preexec      sim.Time `json:"preexec_ns"`
	Recovery     sim.Time `json:"recovery_ns"`
	SyncFaults   uint64   `json:"sync_faults"`
	Dispatches   uint64   `json:"dispatches"`

	// syncTotal is the raw sum of synchronous fault-window durations;
	// FaultWait and Execute are derived from it when the run closes.
	syncTotal sim.Time
}

// coreFold is the streaming per-core state while a run is open.
type coreFold struct {
	attr       *coreEntry
	last       sim.Time
	dispatched bool
	pid        int
	start      sim.Time
	idleOpen   bool
	idleStart  sim.Time
}

// coreEntry pairs a CoreAttr under construction with its per-pid table.
type coreEntry struct {
	ca    *CoreAttr
	procs map[int]*ProcAttr
}

// folder is the whole streaming fold state.
type folder struct {
	out     *Attribution
	run     *RunAttribution // nil between runs
	cores   map[int]*coreFold
	coreIDs []int // insertion-ordered core ids for deterministic finalize
}

// Attribute folds a whole trace into per-run, per-core, per-pid
// virtual-time totals, validating interval discipline as it streams: spans
// must alternate and close, per-core time must be monotonic and fully
// attributed (the auditor's conservation invariant, replayed from the
// file), and nothing may follow a run's EvRunEnd. A trace recorded with an
// event filter that drops the scheduling classes fails here — attribution
// needs the full conservation-bearing stream.
func Attribute(r *Reader) (*Attribution, error) {
	f := &folder{out: &Attribution{}}
	for {
		ev, ok, err := r.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if err := f.fold(ev); err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", r.Line(), err)
		}
	}
	if f.run != nil {
		return nil, fmt.Errorf("replay: trace ended inside run %q (no EvRunEnd)", f.run.Label)
	}
	if len(f.out.Runs) == 0 {
		return nil, fmt.Errorf("replay: trace contains no runs")
	}
	return f.out, nil
}

// core returns (creating on demand) the fold state of one core.
func (f *folder) core(id int) *coreFold {
	if st, ok := f.cores[id]; ok {
		return st
	}
	st := &coreFold{attr: &coreEntry{ca: &CoreAttr{Core: id}, procs: make(map[int]*ProcAttr)}}
	f.cores[id] = st
	f.coreIDs = append(f.coreIDs, id)
	return st
}

// proc returns (creating on demand) the per-pid row of one core.
func (e *coreEntry) proc(pid int, name string) *ProcAttr {
	if p, ok := e.procs[pid]; ok {
		if p.Name == "" {
			p.Name = name
		}
		return p
	}
	p := &ProcAttr{PID: pid, Name: name}
	e.procs[pid] = p
	return p
}

// fold consumes one event. The switch is exhaustive over every obs event
// kind (enforced by the schemafreeze itslint pass): a new kind must be
// explicitly classified as interval-bearing or count-only.
func (f *folder) fold(ev obs.Event) error {
	if ev.Type == obs.EvRunBegin {
		if f.run != nil {
			return fmt.Errorf("RunBegin %q inside open run %q", ev.Cause, f.run.Label)
		}
		f.run = &RunAttribution{Label: ev.Cause}
		f.cores = make(map[int]*coreFold)
		f.coreIDs = nil
		f.run.Events++
		f.run.counts[ev.Type]++
		return nil
	}
	if f.run == nil {
		if fleetScope(ev.Type) {
			// Cluster-coordinator events (request arrivals, routing,
			// completions) are stamped in global fleet time and live
			// between the per-machine runs of a fleet trace; they carry
			// no per-core occupancy, so attribution skips them.
			return nil
		}
		return fmt.Errorf("%s event outside any run (after RunEnd or before RunBegin)", ev.Type)
	}
	f.run.Events++
	f.run.counts[ev.Type]++
	if ev.Type == obs.EvRunEnd {
		return f.finish(ev)
	}

	st := f.core(ev.Core)
	if ev.Time < st.last {
		return fmt.Errorf("core %d time went backwards: %v after %v", ev.Core, ev.Time, st.last)
	}
	st.last = ev.Time
	ca := st.attr.ca

	switch ev.Type {
	case obs.EvDispatch:
		if st.dispatched {
			return fmt.Errorf("core %d: dispatch of pid %d while pid %d still on CPU", ev.Core, ev.PID, st.pid)
		}
		if st.idleOpen {
			return fmt.Errorf("core %d: dispatch inside an open scheduler-idle span", ev.Core)
		}
		if got := ca.Total(); got != ev.Time {
			return fmt.Errorf("core %d: conservation broken at dispatch: clock %v but attributed %v — was the trace recorded with an event filter?",
				ev.Core, ev.Time, got)
		}
		st.dispatched = true
		st.pid = ev.PID
		st.start = ev.Time
		ca.Dispatches++
		st.attr.proc(ev.PID, ev.Cause).Dispatches++
	case obs.EvPreempt, obs.EvBlock, obs.EvProcFinish:
		if !st.dispatched {
			return fmt.Errorf("core %d: %s of pid %d with no process on CPU", ev.Core, ev.Type, ev.PID)
		}
		if ev.PID != st.pid {
			return fmt.Errorf("core %d: %s of pid %d but pid %d was dispatched", ev.Core, ev.Type, ev.PID, st.pid)
		}
		occ := ev.Time - st.start
		if ev.Dur != occ {
			return fmt.Errorf("core %d: occupancy mismatch: event reports %v, dispatch span is %v", ev.Core, ev.Dur, occ)
		}
		ca.CPUTime += occ
		st.attr.proc(ev.PID, "").CPUTime += occ
		st.dispatched = false
	case obs.EvContextSwitch:
		if st.dispatched {
			return fmt.Errorf("core %d: context switch charged while pid %d is on CPU", ev.Core, st.pid)
		}
		ca.SwitchTime += ev.Dur
		ca.Switches++
	case obs.EvSchedIdleBegin:
		if st.idleOpen {
			return fmt.Errorf("core %d: scheduler-idle begin inside an open idle span", ev.Core)
		}
		if st.dispatched {
			return fmt.Errorf("core %d: scheduler idle while pid %d is on CPU", ev.Core, st.pid)
		}
		st.idleOpen = true
		st.idleStart = ev.Time
	case obs.EvSchedIdleEnd:
		if !st.idleOpen {
			return fmt.Errorf("core %d: scheduler-idle end without begin", ev.Core)
		}
		ca.IdleTime += ev.Time - st.idleStart
		ca.IdleSpans++
		st.idleOpen = false
	case obs.EvMajorFaultEnd:
		// Only synchronous windows are CPU-attributed: they close inline
		// within the faulting process's dispatch. Async/spin/demote ends
		// fire off-CPU when the DMA lands and carry no occupancy.
		if ev.Cause == "sync" {
			if !st.dispatched || st.pid != ev.PID {
				return fmt.Errorf("core %d: synchronous fault end for pid %d outside its dispatch", ev.Core, ev.PID)
			}
			p := st.attr.proc(ev.PID, "")
			p.syncTotal += ev.Dur
			p.SyncFaults++
		}
	case obs.EvPrefetchWalk:
		if st.dispatched && st.pid == ev.PID {
			st.attr.proc(ev.PID, "").PrefetchWalk += ev.Dur
		}
	case obs.EvPreexecWindow:
		if st.dispatched && st.pid == ev.PID {
			st.attr.proc(ev.PID, "").Preexec += ev.Dur
		}
	case obs.EvRecovery:
		if st.dispatched && st.pid == ev.PID {
			st.attr.proc(ev.PID, "").Recovery += ev.Dur
		}
	case obs.EvMajorFaultBegin, obs.EvUnblock, obs.EvSliceExpiry, obs.EvPrefetchIssue,
		obs.EvPrefetchDrop, obs.EvPrefetchHit, obs.EvSwapIn, obs.EvEvict, obs.EvWriteBack,
		obs.EvGauge, obs.EvFaultInject, obs.EvIORetry, obs.EvDemote, obs.EvPrefetchThrottle,
		obs.EvRequestArrive, obs.EvRequestRoute, obs.EvRequestDone,
		obs.EvMachineDown, obs.EvMachineUp, obs.EvMachineDrain, obs.EvMachineDegrade,
		obs.EvReqTimeout, obs.EvReqRetry, obs.EvReqHedge, obs.EvReqShed:
		// Count-only: no CPU-time accounting rides on these.
	case obs.EvRunBegin, obs.EvRunEnd:
		// Handled above; listed to keep the switch exhaustive.
	}
	return nil
}

// fleetScope reports whether t is a cluster-coordinator event kind that a
// fleet trace legitimately carries outside the per-machine RunBegin/RunEnd
// frames (see internal/cluster).
func fleetScope(t obs.Type) bool {
	switch t {
	case obs.EvRequestArrive, obs.EvRequestRoute, obs.EvRequestDone,
		obs.EvMachineDown, obs.EvMachineUp, obs.EvMachineDrain, obs.EvMachineDegrade,
		obs.EvReqTimeout, obs.EvReqRetry, obs.EvReqHedge, obs.EvReqShed:
		return true
	default:
		return false
	}
}

// finish closes the current run at its EvRunEnd.
func (f *folder) finish(ev obs.Event) error {
	for _, id := range f.coreIDs {
		st := f.cores[id]
		if st.dispatched {
			return fmt.Errorf("run ended with pid %d still dispatched on core %d", st.pid, id)
		}
		if st.idleOpen {
			return fmt.Errorf("run ended inside an open scheduler-idle span on core %d", id)
		}
	}
	run := f.run
	run.Makespan = ev.Time
	sort.Ints(f.coreIDs)
	for _, id := range f.coreIDs {
		e := f.cores[id].attr
		e.ca.Procs = e.sortedProcs()
		for _, p := range e.ca.Procs {
			p.FaultWait = p.syncTotal - p.PrefetchWalk - p.Preexec - p.Recovery
			p.Execute = p.CPUTime - p.syncTotal
		}
		run.Cores = append(run.Cores, e.ca)
	}
	f.out.Runs = append(f.out.Runs, run)
	f.run = nil
	f.cores = nil
	f.coreIDs = nil
	return nil
}

// sortedProcs extracts the per-pid rows ascending by pid.
func (e *coreEntry) sortedProcs() []*ProcAttr {
	out := make([]*ProcAttr, 0, len(e.procs))
	//itslint:allow order-insensitive extraction, sorted immediately below
	for _, p := range e.procs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// CoreAttributions converts one run's fold into the metrics cross-check
// form, for Summary.CheckAttribution.
func (r *RunAttribution) CoreAttributions() []metrics.CoreAttribution {
	out := make([]metrics.CoreAttribution, len(r.Cores))
	for i, c := range r.Cores {
		out[i] = metrics.CoreAttribution{
			Core:              c.Core,
			CPUTime:           c.CPUTime,
			ContextSwitchTime: c.SwitchTime,
			SchedulerIdle:     c.IdleTime,
		}
	}
	return out
}

// Count returns how many events of one type the run carried.
func (r *RunAttribution) Count(t obs.Type) uint64 { return r.counts[t] }

// WriteFolded renders the attribution as flame-style folded stacks — one
// "frame1;frame2;... value" line per leaf, value in virtual nanoseconds —
// directly consumable by flamegraph.pl / speedscope / inferno. Zero-valued
// leaves are omitted; output is byte-deterministic.
func (a *Attribution) WriteFolded(w io.Writer) error {
	var err error
	emit := func(v sim.Time, format string, args ...any) {
		if err != nil || v <= 0 {
			return
		}
		if _, e := fmt.Fprintf(w, format+" %d\n", append(args, int64(v))...); e != nil {
			err = e
		}
	}
	for _, run := range a.Runs {
		for _, c := range run.Cores {
			emit(c.IdleTime, "%s;core%d;idle", run.Label, c.Core)
			emit(c.SwitchTime, "%s;core%d;switch", run.Label, c.Core)
			for _, p := range c.Procs {
				name := p.Name
				if name == "" {
					name = "?"
				}
				emit(p.Execute, "%s;core%d;cpu;pid%d:%s;execute", run.Label, c.Core, p.PID, name)
				emit(p.FaultWait, "%s;core%d;cpu;pid%d:%s;sync-fault;wait", run.Label, c.Core, p.PID, name)
				emit(p.PrefetchWalk, "%s;core%d;cpu;pid%d:%s;sync-fault;prefetch-walk", run.Label, c.Core, p.PID, name)
				emit(p.Preexec, "%s;core%d;cpu;pid%d:%s;sync-fault;preexec", run.Label, c.Core, p.PID, name)
				emit(p.Recovery, "%s;core%d;cpu;pid%d:%s;sync-fault;recovery", run.Label, c.Core, p.PID, name)
			}
		}
	}
	return err
}
