// Package exec is the core-execution engine: the per-record executor the
// machine model (internal/smp) instantiates once per simulated core. One
// implementation of dispatch, record peek/pop/advance, cache access with
// inclusive LLC fill, swap-in management, prefetching, the major-fault flow
// of the paper's Figure 1, and fault-aware pre-execution — parameterized
// over core-local state (engine/clock, L1, TLB, runqueue, policy instance,
// pre-execute carve-out, metrics sink) with the shared LLC/kernel/swap/ULL
// state behind it.
//
// A Core is one simulated CPU; a Shared is everything the cores contend on.
// The machine is a Shared with N Cores driven by internal/smp's
// bounded-skew coordinator; the paper's platform is N=1.
package exec

import (
	"fmt"

	"itsim/internal/bus"
	"itsim/internal/cache"
	"itsim/internal/cpu"
	"itsim/internal/fault"
	"itsim/internal/sched"
	"itsim/internal/sim"
	"itsim/internal/storage"
	"itsim/internal/trace"
)

// Timing defaults of the simulated core.
const (
	// L1Hit is the L1 hit latency.
	L1Hit = 1 * sim.Nanosecond
	// LLCHit is the LLC hit latency.
	LLCHit = 12 * sim.Nanosecond
	// TLBMissCost is the page-walk cost of a TLB miss (a mostly-cached
	// 4-level walk), charged when Config.TLBEntries enables the TLB.
	TLBMissCost = 25 * sim.Nanosecond
	// InstPerNs is instructions retired per nanosecond of pure compute
	// (2 ⇒ 0.5 ns per instruction, a 2 GHz core at IPC 1): the rate that
	// converts a record's instruction gap to time.
	InstPerNs = 2
	// Lookahead is how many upcoming records the pre-execute engine can
	// see (the effective instruction window during runahead), counting
	// the faulting one: each process's record ring holds this many.
	// A power of two, so ring positions wrap with a mask.
	Lookahead = 256
)

// InterruptCost is the DMA completion interrupt's handling cost charged when
// interrupt-driven state recovery ends a pre-execution episode (§3.4.3).
const InterruptCost = 300 * sim.Nanosecond

// Config sizes the simulated platform. The zero value is not usable;
// start from DefaultConfig. (Error messages keep the "machine:" prefix —
// they describe the simulated machine's configuration, which users reach
// through machine.Config.)
type Config struct {
	// Cores is the number of simulated CPU cores sharing the LLC, kernel
	// and storage path (1 = the paper's platform; internal/smp reads 0,
	// for configs built before the field existed, as 1). Validate rejects
	// non-positive values.
	Cores int
	// LLCSize/LLCWays/LineBytes shape the last-level cache. When the
	// policy needs a pre-execute cache, half of LLCSize goes to it.
	LLCSize   int
	LLCWays   int
	LineBytes int
	// L1Size/L1Ways shape the first-level cache.
	L1Size int
	L1Ways int
	// DRAMRatio sizes DRAM relative to the batch's aggregate footprint
	// (the paper tailors DRAM to the working set; contention comes from
	// the sum exceeding capacity).
	DRAMRatio float64
	// Device parameterizes the ULL SSD.
	Device storage.Config
	// BusLanes/LaneBandwidth parameterize the PCIe link.
	BusLanes      int
	LaneBandwidth int64
	// MinSlice/MaxSlice are the SCHED_RR NICE slice bounds. The paper
	// uses 5 ms…800 ms over minutes-long traces; scaled-down traces
	// scale these with the workload so round-robin rotation dynamics are
	// preserved (see core.Options.Scale). Zero selects the paper values.
	MinSlice sim.Time
	MaxSlice sim.Time
	// MaxSimTime aborts runaway simulations (0 = no limit).
	MaxSimTime sim.Time
	// WarmFraction of DRAM is pre-loaded with the processes' working
	// sets (fair shares, hottest pages first) before the run, modelling
	// the paper's steady-state multiprogramming rather than a cold boot.
	// 0 selects the default (0.85); negative disables warm-start.
	WarmFraction float64
	// PreExecCacheFraction is the share of the LLC carved out as the
	// pre-execute cache for Sync_Runahead/ITS (paper §4.1 fixes it at
	// one half). 0 selects 0.5; values are clamped to [0.1, 0.9] and
	// rounded to keep both caches valid set-associative geometries.
	PreExecCacheFraction float64
	// StrictPriority selects true SCHED_RR dispatch semantics (highest
	// priority first) instead of the paper's effective single-queue
	// round-robin with NICE slices. Ablation knob.
	StrictPriority bool
	// TLBEntries enables the TLB model with the given capacity (0 =
	// disabled). When enabled, context switches flush the TLB and every
	// TLB miss pays TLBMissCost — a mechanistic replacement for the
	// fixed SwitchPollutionCost, which is then not charged.
	TLBEntries int
	// SwapClusterPages selects the swap-in granularity in pages (0 or 1
	// = base 4 KiB pages). Larger values model huge-page-style swapping
	// (paper §1: "larger I/O sizes like huge page management"): a major
	// fault fetches the whole aligned cluster and the faulting process
	// waits for all of it.
	SwapClusterPages int
	// RecoveryPoll selects the state-recovery termination mode of
	// §3.4.3: zero means interrupt-driven (the DMA controller interrupts
	// on I/O completion, costing InterruptCost), a positive duration
	// means a polling timer checks completion every RecoveryPoll — the
	// process resumes only at the next tick after the DMA lands, so
	// polling overshoots by up to one interval.
	RecoveryPoll sim.Time
	// Fault configures deterministic device fault injection (tail
	// spikes, channel stalls, transient DMA failures). The zero value
	// attaches no injector and keeps the device on the historical path.
	Fault fault.Config
	// SpinBudget bounds every otherwise-unbounded synchronous fault wait:
	// when the predicted window exceeds the budget, the wait demotes to
	// an async context switch (graceful degradation under a misbehaving
	// device). 0 disables the budget (the historical behaviour).
	SpinBudget sim.Time
}

// DefaultConfig returns the paper's §4.1 platform.
func DefaultConfig() Config {
	return Config{
		Cores:         1,
		LLCSize:       8 << 20,
		LLCWays:       16,
		LineBytes:     64,
		L1Size:        32 << 10,
		L1Ways:        8,
		DRAMRatio:     0.75,
		Device:        storage.DefaultConfig(),
		BusLanes:      bus.DefaultLanes,
		LaneBandwidth: bus.DefaultLaneBandwidth,
	}
}

// sliceScalePerUnit converts workload scale to slice scale. The paper's
// 800 ms/5 ms slices govern traces that run for minutes; our synthetic
// traces at scale 1.0 run for a few hundred milliseconds, roughly 50×
// shorter, so slices shrink by the same factor (0.02) to preserve how often
// round-robin rotation interleaves the processes. MinSliceFloor keeps the
// smallest slice well above the 7 µs context switch, as in the paper.
const (
	sliceScalePerUnit = 0.02
	minSliceFloor     = 20 * sim.Microsecond
)

// SliceRange returns the scaled SCHED_RR slice bounds for a workload scale.
func SliceRange(scale float64) (min, max sim.Time) {
	max = sim.Time(float64(800*sim.Millisecond) * sliceScalePerUnit * scale)
	min = sim.Time(float64(5*sim.Millisecond) * sliceScalePerUnit * scale)
	if min < minSliceFloor {
		min = minSliceFloor
	}
	if max < 10*min {
		max = 10 * min
	}
	return min, max
}

// DRAMRatioFor returns the per-batch DRAM sizing ratio. The paper tailors
// DRAM to each batch's working set (§4.1); data-intensive-heavy batches get
// a slightly larger share of their (much larger) aggregate footprint so the
// resident working sets stay comparable.
func DRAMRatioFor(dataIntensive int) float64 {
	if dataIntensive >= 2 {
		return 0.78
	}
	return 0.70
}

// preExecWays returns how many LLC ways the pre-execute carve-out takes in
// total, applying the PreExecCacheFraction defaulting and clamping rules.
func (c Config) preExecWays() int {
	frac := c.PreExecCacheFraction
	if frac <= 0 {
		frac = 0.5
	}
	if frac < 0.1 {
		frac = 0.1
	}
	if frac > 0.9 {
		frac = 0.9
	}
	pxWays := int(frac*float64(c.LLCWays) + 0.5)
	if pxWays < 1 {
		pxWays = 1
	}
	if pxWays >= c.LLCWays {
		pxWays = c.LLCWays - 1
	}
	return pxWays
}

// PreExecPartition splits the LLC's ways between the shared LLC and `cores`
// per-core pre-execute carve-outs. The total carve-out budget is the
// single-core fraction of the ways; each core receives an equal share of at
// least one way, and the shared LLC keeps whatever remains. An error means
// the geometry cannot host one carve-out per core — the validation the
// -cores flag path surfaces to the user.
func (c Config) PreExecPartition(cores int) (pxWaysPerCore, llcWays int, err error) {
	if cores < 1 {
		return 0, 0, fmt.Errorf("machine: non-positive core count %d", cores)
	}
	total := c.preExecWays()
	per := total / cores
	if per < 1 {
		return 0, 0, fmt.Errorf("machine: LLC (%d ways, %d reserved for pre-execute caches) is smaller than one pre-execute carve-out per core across %d cores",
			c.LLCWays, total, cores)
	}
	llcWays = c.LLCWays - per*cores
	if llcWays < 1 {
		return 0, 0, fmt.Errorf("machine: %d cores × %d pre-execute ways leave no LLC ways of %d",
			cores, per, c.LLCWays)
	}
	return per, llcWays, nil
}

// sliceRange returns the SCHED_RR slice bounds NewShared installs, after
// defaulting a non-positive bound to the paper's (sched.MinSlice or
// sched.MaxSlice); ok is false when both are unset and the scheduler keeps
// its built-in range.
func (c Config) sliceRange() (min, max sim.Time, ok bool) {
	if c.MinSlice <= 0 && c.MaxSlice <= 0 {
		return 0, 0, false
	}
	min, max = c.MinSlice, c.MaxSlice
	if min <= 0 {
		min = sched.MinSlice
	}
	if max <= 0 {
		max = sched.MaxSlice
	}
	return min, max, true
}

// Validate checks the platform configuration, returning errors instead of
// the panics (or silent nonsense) the low-level constructors produce: paths
// that accept user input — the CLIs' -cores flag, core.Options — validate
// before building a machine.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: core count must be positive, got %d", c.Cores)
	}
	if c.LLCWays <= 0 || c.LLCWays&(c.LLCWays-1) != 0 {
		return fmt.Errorf("machine: LLC ways %d is not a power of two", c.LLCWays)
	}
	if c.L1Ways <= 0 || c.L1Ways&(c.L1Ways-1) != 0 {
		return fmt.Errorf("machine: L1 ways %d is not a power of two", c.L1Ways)
	}
	if err := (cache.Config{SizeBytes: c.LLCSize, LineBytes: c.LineBytes, Ways: c.LLCWays}).Validate(); err != nil {
		return fmt.Errorf("machine: LLC geometry: %w", err)
	}
	if err := (cache.Config{SizeBytes: c.L1Size, LineBytes: c.LineBytes, Ways: c.L1Ways}).Validate(); err != nil {
		return fmt.Errorf("machine: L1 geometry: %w", err)
	}
	// Every policy must be runnable on the configured geometry, so the
	// pre-execute carve-out (ITS/Sync_Runahead) must fit even if the run
	// at hand does not use it.
	if c.LineBytes > cpu.MaxPreExecLineBytes {
		return fmt.Errorf("machine: %d-byte lines exceed the pre-execute cache's %d INV bits per line",
			c.LineBytes, cpu.MaxPreExecLineBytes)
	}
	if _, _, err := c.PreExecPartition(c.Cores); err != nil {
		return err
	}
	if err := c.Device.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if err := c.Fault.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if c.SpinBudget < 0 {
		return fmt.Errorf("machine: spin budget must be >= 0, got %v", c.SpinBudget)
	}
	if min, max, ok := c.sliceRange(); ok && max < min {
		return fmt.Errorf("machine: max slice %v is below min slice %v (an unset bound defaults to %v or %v)",
			max, min, sched.MinSlice, sched.MaxSlice)
	}
	return nil
}

// ProcessSpec declares one process of a run.
type ProcessSpec struct {
	// Name labels the process (benchmark name).
	Name string
	// Tenant names the serving tenant this process's request belongs to
	// on fleet runs (internal/cluster); empty elsewhere. Carried through
	// to metrics.Process.Tenant so fleet traces attribute per tenant.
	Tenant string
	// Gen supplies the trace. Each process owns its generator: the
	// executor draws up to Lookahead records ahead of execution.
	Gen trace.Generator
	// Priority is the scheduling priority (larger = higher).
	Priority int
	// BaseVA is where the process image starts; the region
	// [BaseVA, BaseVA+Gen.FootprintBytes()) is mapped into the swap area
	// before the run. Synthetic workloads use workload.BaseVA.
	BaseVA uint64
}
