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

// CoreAttr is one core's fold: its auditor's three conservation
// categories plus the per-pid split of the CPU category.
type CoreAttr struct {
	metrics.CoreAttribution
	Dispatches uint64      `json:"dispatches"`
	Switches   uint64      `json:"switches"`
	IdleSpans  uint64      `json:"idle_spans"`
	Procs      []*ProcAttr `json:"procs"`

	// byPID indexes Procs while the run is open.
	byPID map[int]*ProcAttr
}

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

// folder is Attribute's runSink: it turns the first auditor violation
// into the replay's error, and adds the per-pid split and the event counts
// to the per-core fold of frameRuns' auditors.
type folder struct {
	out   Attribution
	run   *RunAttribution
	cores []*CoreAttr // by runCore.idx
}

// Attribute folds a whole trace into per-run, per-core, per-pid
// virtual-time totals. Each core's events fold through an obs.Auditor, as
// on a live run, so spans must alternate and close and per-core time must
// be monotonic and fully attributed; nothing may follow a run's EvRunEnd.
// A trace recorded with an event filter that drops the scheduling classes
// fails here — attribution needs the full conservation-bearing stream.
func Attribute(r *Reader) (*Attribution, error) {
	f := &folder{}
	if err := frameRuns(r, f); err != nil {
		return nil, err
	}
	return &f.out, nil
}

// proc returns (creating on demand) the per-pid row of one core.
func (c *CoreAttr) proc(pid int, name string) *ProcAttr {
	if p, ok := c.byPID[pid]; ok {
		if p.Name == "" {
			p.Name = name
		}
		return p
	}
	p := &ProcAttr{PID: pid, Name: name}
	c.byPID[pid] = p
	return p
}

func (f *folder) count(ev obs.Event) {
	f.run.Events++
	f.run.counts[ev.Type]++
}

func (f *folder) begin(ev obs.Event) {
	f.run = &RunAttribution{Label: ev.Cause}
	f.cores = f.cores[:0]
	f.count(ev)
}

// event folds one event. The switch is exhaustive over every obs event
// kind (enforced by the schemafreeze itslint pass): a new kind must be
// explicitly classified as interval-bearing or count-only.
func (f *folder) event(ev obs.Event, rc *runCore, span sim.Time) error {
	f.count(ev)
	if vs := rc.aud.Violations(); len(vs) > 0 {
		hint := ""
		if ev.Type == obs.EvDispatch && span != 0 {
			hint = " — was the trace recorded with an event filter?"
		}
		return fmt.Errorf("core %d: %s%s", rc.id, vs[0], hint)
	}
	if rc.idx == len(f.cores) {
		f.cores = append(f.cores, &CoreAttr{byPID: make(map[int]*ProcAttr)})
	}
	c := f.cores[rc.idx]
	switch ev.Type {
	case obs.EvDispatch:
		c.Dispatches++
		c.proc(ev.PID, ev.Cause).Dispatches++
	case obs.EvPreempt, obs.EvBlock, obs.EvProcFinish:
		c.proc(ev.PID, "").CPUTime += span
	case obs.EvContextSwitch:
		c.Switches++
	case obs.EvSchedIdleEnd:
		c.IdleSpans++
	case obs.EvMajorFaultEnd:
		// Only synchronous windows are CPU-attributed: they close inline
		// within the faulting process's dispatch. Async/spin/demote ends
		// fire off-CPU when the DMA lands and carry no occupancy.
		if ev.Cause == "sync" {
			if pid, on := rc.aud.OnCPU(); !on || pid != ev.PID {
				return fmt.Errorf("core %d: synchronous fault end for pid %d outside its dispatch", rc.id, ev.PID)
			}
			p := c.proc(ev.PID, "")
			p.syncTotal += ev.Dur
			p.SyncFaults++
		}
	case obs.EvPrefetchWalk, obs.EvPreexecWindow, obs.EvRecovery:
		// Stolen work counts for the process whose wait it ran in.
		if pid, on := rc.aud.OnCPU(); on && pid == ev.PID {
			p := c.proc(pid, "")
			switch ev.Type {
			case obs.EvPrefetchWalk:
				p.PrefetchWalk += ev.Dur
			case obs.EvPreexecWindow:
				p.Preexec += ev.Dur
			default:
				p.Recovery += ev.Dur
			}
		}
	case obs.EvSchedIdleBegin, obs.EvMajorFaultBegin, obs.EvUnblock, obs.EvSliceExpiry,
		obs.EvPrefetchIssue, obs.EvPrefetchDrop, obs.EvPrefetchHit, obs.EvSwapIn, obs.EvEvict,
		obs.EvWriteBack, obs.EvGauge, obs.EvFaultInject, obs.EvIORetry, obs.EvDemote,
		obs.EvPrefetchThrottle, obs.EvRequestArrive, obs.EvRequestRoute, obs.EvRequestDone,
		obs.EvMachineDown, obs.EvMachineUp, obs.EvMachineDrain, obs.EvMachineDegrade,
		obs.EvReqTimeout, obs.EvReqRetry, obs.EvReqHedge, obs.EvReqShed:
		// Count-only: no CPU-time accounting rides on these.
	case obs.EvRunBegin, obs.EvRunEnd:
		// Framed by frameRuns; listed to keep the switch exhaustive.
	}
	return nil
}

// end closes the run. The trace records the run's makespan, not each
// core's final clock, so only the open-span half of the auditor's run-end
// check applies here; conservation against the local clocks is Check's.
func (f *folder) end(ev obs.Event, cores []*runCore) error {
	f.count(ev)
	f.run.Makespan = ev.Time
	for _, rc := range cores {
		rc.aud.CheckClosed(ev)
		if vs := rc.aud.Violations(); len(vs) > 0 {
			return fmt.Errorf("core %d: %s", rc.id, vs[0])
		}
		c := f.cores[rc.idx]
		c.Core = rc.id
		c.CPUTime, c.ContextSwitchTime, c.SchedulerIdle = rc.aud.Folded()
		c.Procs = make([]*ProcAttr, 0, len(c.byPID))
		//itslint:allow order-insensitive extraction, sorted immediately below
		for _, p := range c.byPID {
			c.Procs = append(c.Procs, p)
		}
		sort.Slice(c.Procs, func(i, j int) bool { return c.Procs[i].PID < c.Procs[j].PID })
		for _, p := range c.Procs {
			p.FaultWait = p.syncTotal - p.PrefetchWalk - p.Preexec - p.Recovery
			p.Execute = p.CPUTime - p.syncTotal
		}
		c.byPID = nil
		f.run.Cores = append(f.run.Cores, c)
	}
	f.out.Runs = append(f.out.Runs, f.run)
	return nil
}

// Check reconciles one run's fold with the run's summary at zero
// tolerance: each core's totals through Summary.CheckAttribution, and each
// pid's CPU time, summed over the cores it ran on, against the summary's
// Process.CPUTime.
func (r *RunAttribution) Check(sum *metrics.Summary) error {
	cores := make([]metrics.CoreAttribution, len(r.Cores))
	for i, c := range r.Cores {
		cores[i] = c.CoreAttribution
	}
	if err := sum.CheckAttribution(cores); err != nil {
		return err
	}
	cpu := make(map[int]sim.Time)
	for _, c := range r.Cores {
		for _, p := range c.Procs {
			cpu[p.PID] += p.CPUTime
		}
	}
	for _, p := range sum.Procs {
		if cpu[p.PID] != p.CPUTime {
			return fmt.Errorf("replay: pid %d attributed cpu %v != ledger cpu %v", p.PID, cpu[p.PID], p.CPUTime)
		}
		delete(cpu, p.PID)
	}
	if len(cpu) > 0 {
		return fmt.Errorf("replay: %d traced pid(s) missing from the summary", len(cpu))
	}
	return nil
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
			emit(c.SchedulerIdle, "%s;core%d;idle", run.Label, c.Core)
			emit(c.ContextSwitchTime, "%s;core%d;switch", run.Label, c.Core)
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
