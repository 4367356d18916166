// Package metrics collects the quantities the paper's evaluation reports:
// total CPU idle time (Fig 4a), page-fault counts (Fig 4b), CPU cache-miss
// counts (Fig 4c), and per-process finish times split by priority half
// (Fig 5a/5b), plus supporting detail (prefetch accuracy, pre-execution
// efficacy, context switches).
//
// The paper's definition (§4.2.1): "CPU idle time is the aggregated time of
// the CPU busy waiting for the response of memory and storage devices during
// the cache misses and page faults". We therefore accumulate idle time in
// three buckets: memory stalls (LLC miss service), storage busy-wait
// (synchronous fault wait not covered by stolen work), and scheduler idle
// (all processes blocked on asynchronous I/O — still time the CPU spends
// waiting on storage).
package metrics

import (
	"sort"

	"itsim/internal/sim"
)

// Process accumulates per-process counters.
//
//itslint:frozen
type Process struct {
	PID      int
	Name     string
	Priority int

	// Tenant names the serving tenant whose request this process executes
	// on fleet runs (internal/cluster); empty — and omitted from JSON, so
	// single-machine summaries keep their historical byte layout — on
	// every other path.
	Tenant string `json:"Tenant,omitempty"`

	// FinishTime is the virtual time the process's trace completed.
	FinishTime sim.Time
	// Finished reports whether the process ran to completion.
	Finished bool

	// Instructions is the number of simulated instructions executed
	// (memory accesses + compute gaps).
	Instructions uint64

	// CPUTime is wall-clock (virtual) time this process occupied the
	// CPU while dispatched: compute, cache stalls, fault handling and
	// synchronous waits. Across a run, ΣCPUTime + context-switch time +
	// scheduler idle == makespan (the machine's conservation invariant).
	CPUTime sim.Time

	// MajorFaults / MinorFaults count page faults (major = storage I/O).
	MajorFaults uint64
	MinorFaults uint64

	// LLCAccesses / LLCMisses count last-level-cache activity attributed
	// to this process's real (non-pre-execute) accesses.
	LLCAccesses uint64
	LLCMisses   uint64

	// MemStall is CPU time spent waiting on DRAM after LLC misses.
	MemStall sim.Time
	// StorageWait is CPU busy-wait time during this process's synchronous
	// major faults: the whole window from DMA start to completion. Time
	// ITS steals from the window for prefetching/pre-execution is still
	// part of the window (the CPU is occupied by the wait either way; the
	// stolen work's payoff shows up as fewer future faults and misses).
	StorageWait sim.Time
	// BlockedWait is a diagnostic for asynchronous faults: time from
	// blocking to next dispatch (I/O plus ready-queue wait). It is NOT
	// part of IdleTime — the CPU ran other processes meanwhile; the CPU
	// cost of asynchrony is counted globally as context-switch time and
	// scheduler idle.
	BlockedWait sim.Time
	// StolenPrefetch / StolenPreexec is busy-wait time the ITS /
	// runahead machinery converted into useful work.
	StolenPrefetch sim.Time
	StolenPreexec  sim.Time
	// RecoveryOverhead is state-recovery checkpoint/restore time.
	RecoveryOverhead sim.Time

	// ContextSwitches counts switches charged to this process's faults
	// and slice expiries.
	ContextSwitches uint64

	// PrefetchIssued / PrefetchUseful count prefetched pages and those
	// later touched before eviction. PrefetchDropped counts candidates
	// rejected by device admission control (channel busy).
	PrefetchIssued  uint64
	PrefetchUseful  uint64
	PrefetchDropped uint64

	// PreexecInstrs / PreexecValid / PreexecFills count pre-executed
	// instructions, the valid subset, and LLC lines warmed by them.
	PreexecInstrs uint64
	PreexecValid  uint64
	PreexecFills  uint64

	// Demotions counts synchronous waits the executor's spin budget
	// demoted to asynchronous context switches (graceful degradation
	// under a misbehaving device). PrefetchThrottled counts prefetch
	// walks ITS skipped because the busy-channel gauge saturated. Both
	// are zero — and omitted from JSON — on a healthy device.
	Demotions         uint64 `json:"Demotions,omitempty"`
	PrefetchThrottled uint64 `json:"PrefetchThrottled,omitempty"`
}

// IdleTime returns the process-attributed idle time (memory stalls plus
// un-stolen storage busy-wait).
func (p *Process) IdleTime() sim.Time { return p.MemStall + p.StorageWait }

// Core accumulates per-core counters of a run. On a one-core machine the
// single entry's fields mirror the Run-level aggregates.
//
//itslint:frozen
type Core struct {
	// ID is the simulated core number.
	ID int `json:"id"`

	// LocalClock is the core's virtual clock when it retired its last
	// activity; the run's Makespan is the maximum over cores.
	LocalClock sim.Time `json:"local_clock_ns"`

	// CPUTime is time the core spent executing dispatched processes
	// (compute, stalls, fault handling, synchronous waits).
	CPUTime sim.Time `json:"cpu_time_ns"`
	// SchedulerIdle is time the core had nothing runnable (including
	// parked spans ended by stealing work from another core).
	SchedulerIdle sim.Time `json:"scheduler_idle_ns"`
	// ContextSwitchTime is switch time charged on this core, including
	// migration switches paid to steal a process. Unlike the Run-level
	// field, it carries the full clock cost of each switch (the 7 µs
	// save/restore plus the pollution tail when modelled as a constant),
	// so that per core CPUTime + SchedulerIdle + ContextSwitchTime ==
	// LocalClock exactly.
	ContextSwitchTime sim.Time `json:"context_switch_time_ns"`

	// StolenPrefetch/StolenPreexec is busy-wait time this core's ITS
	// machinery converted into useful work (per-core stolen time).
	StolenPrefetch sim.Time `json:"stolen_prefetch_ns"`
	StolenPreexec  sim.Time `json:"stolen_preexec_ns"`

	// Dispatches counts processes put on this core's CPU.
	Dispatches uint64 `json:"dispatches"`
	// Steals counts ready processes this core pulled from another core's
	// runqueue; MigratedAway counts processes other cores pulled from
	// this one.
	Steals       uint64 `json:"steals"`
	MigratedAway uint64 `json:"migrated_away"`
}

// Stolen returns the core's total stolen time.
func (c *Core) Stolen() sim.Time { return c.StolenPrefetch + c.StolenPreexec }

// Run aggregates one simulation run (one batch under one policy).
type Run struct {
	Policy string
	Batch  string

	Procs []*Process

	// Cores holds per-core counters, one entry per simulated core.
	// Run-level time fields (SchedulerIdle, ContextSwitchTime) aggregate
	// over cores as CPU-seconds.
	Cores []*Core

	// Makespan is the finish time of the last process.
	Makespan sim.Time
	// SchedulerIdle is CPU time with no runnable process (every process
	// blocked on asynchronous I/O) — the CPU is waiting on storage.
	SchedulerIdle sim.Time
	// ContextSwitchTime is total time spent performing context switches.
	ContextSwitchTime sim.Time
	// FaultHandlerTime is kernel time in the page-fault handler.
	FaultHandlerTime sim.Time
	// SyncWaitHist is the distribution of synchronous fault windows.
	SyncWaitHist *Histogram
	// BlockedHist is the distribution of asynchronous block→dispatch
	// waits.
	BlockedHist *Histogram

	// Injection summarizes fault-injector activity and the kernel's
	// retry response; nil (and omitted from JSON) when no injector was
	// attached, so fault-free summaries are byte-identical to the
	// pre-fault format.
	Injection *InjectionStats `json:"Injection,omitempty"`
}

// InjectionStats counts delivered device faults and kernel retries over a
// run with fault injection enabled.
//
//itslint:frozen
type InjectionStats struct {
	// TailSpikes / ChannelStalls / DMAFailures count faults the injector
	// delivered.
	TailSpikes    uint64 `json:"tail_spikes,omitempty"`
	ChannelStalls uint64 `json:"channel_stalls,omitempty"`
	DMAFailures   uint64 `json:"dma_failures,omitempty"`
	// DMARetries counts the kernel's backoff resubmissions (equal to
	// DMAFailures minus failures still unresolved at run end — in
	// practice equal, since every failed read is retried immediately).
	DMARetries uint64 `json:"dma_retries,omitempty"`
}

// NewRun creates an empty run record.
func NewRun(policy, batch string) *Run {
	return &Run{
		Policy:       policy,
		Batch:        batch,
		SyncWaitHist: NewLatencyHistogram(),
		BlockedHist:  NewLatencyHistogram(),
	}
}

// AddProcess registers a process record and returns it.
func (r *Run) AddProcess(pid int, name string, priority int) *Process {
	p := &Process{PID: pid, Name: name, Priority: priority}
	r.Procs = append(r.Procs, p)
	return p
}

// AddCore registers a per-core record and returns it.
func (r *Run) AddCore(id int) *Core {
	c := &Core{ID: id}
	r.Cores = append(r.Cores, c)
	return c
}

// TotalIdle is the paper's Fig 4a quantity ("Total CPU Waiting Time"): the
// aggregated time the CPU makes no process progress because of memory and
// storage — per-process memory stalls and synchronous busy-wait windows,
// plus the globally wasted time of asynchrony: context switching (pure
// state movement, no progress) and scheduler idle (every process blocked on
// storage).
func (r *Run) TotalIdle() sim.Time {
	t := r.SchedulerIdle + r.ContextSwitchTime
	for _, p := range r.Procs {
		t += p.IdleTime()
	}
	return t
}

// TotalMajorFaults is the Fig 4b quantity.
func (r *Run) TotalMajorFaults() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.MajorFaults
	}
	return n
}

// TotalMinorFaults sums minor faults.
func (r *Run) TotalMinorFaults() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.MinorFaults
	}
	return n
}

// TotalLLCMisses is the Fig 4c quantity.
func (r *Run) TotalLLCMisses() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.LLCMisses
	}
	return n
}

// TotalContextSwitches sums context switches.
func (r *Run) TotalContextSwitches() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.ContextSwitches
	}
	return n
}

// TotalDemotions sums spin-budget demotions across processes.
func (r *Run) TotalDemotions() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.Demotions
	}
	return n
}

// TotalPrefetchThrottled sums gauge-throttled prefetch walks.
func (r *Run) TotalPrefetchThrottled() uint64 {
	var n uint64
	for _, p := range r.Procs {
		n += p.PrefetchThrottled
	}
	return n
}

// TotalStolen returns the busy-wait time converted to useful work.
func (r *Run) TotalStolen() sim.Time {
	var t sim.Time
	for _, p := range r.Procs {
		t += p.StolenPrefetch + p.StolenPreexec
	}
	return t
}

// byPriority sorts descending by priority, ties broken by pid for
// determinism.
func (r *Run) byPriority() []*Process {
	out := make([]*Process, len(r.Procs))
	copy(out, r.Procs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].PID < out[j].PID
	})
	return out
}

// TopHalfAvgFinish is Fig 5a: the mean finish time of the top-50 %-priority
// processes.
func (r *Run) TopHalfAvgFinish() sim.Time {
	s := r.byPriority()
	half := len(s) / 2
	if half == 0 {
		half = len(s)
	}
	return avgFinish(s[:half])
}

// BottomHalfAvgFinish is Fig 5b: the mean finish time of the bottom-50 %.
func (r *Run) BottomHalfAvgFinish() sim.Time {
	s := r.byPriority()
	half := len(s) / 2
	return avgFinish(s[half:])
}

// AvgFinish is the mean finish time over all processes.
func (r *Run) AvgFinish() sim.Time { return avgFinish(r.Procs) }

func avgFinish(ps []*Process) sim.Time {
	if len(ps) == 0 {
		return 0
	}
	var t sim.Time
	for _, p := range ps {
		t += p.FinishTime
	}
	return t / sim.Time(len(ps))
}

// PrefetchAccuracy returns useful/issued prefetches over the run, or 0.
func (r *Run) PrefetchAccuracy() float64 {
	var issued, useful uint64
	for _, p := range r.Procs {
		issued += p.PrefetchIssued
		useful += p.PrefetchUseful
	}
	if issued == 0 {
		return 0
	}
	return float64(useful) / float64(issued)
}
