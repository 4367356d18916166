// Package policy implements the five I/O-mode policies compared in the
// paper's evaluation (§4.1):
//
//	Async         — traditional asynchronous I/O: every major fault context
//	                switches away and the process blocks until DMA completes.
//	Sync          — the Intel/IBM-advocated synchronous mode: busy-wait for
//	                the ULL device on every major fault.
//	Sync_Runahead — synchronous, with classic runahead pre-execution during
//	                the wait ([5,10,11]; triggered on page faults here, as
//	                the paper adapts it).
//	Sync_Prefetch — synchronous, with page-on-page group prefetching ([17]).
//	ITS           — the paper's contribution: priority-aware thread
//	                selection (§3.2) dispatching the self-sacrificing thread
//	                (async, §3.3) for low-priority processes and the
//	                self-improving thread (page-table-walk prefetch +
//	                fault-aware pre-execution, §3.4) for high-priority ones.
//
// A policy is consulted once per major fault and returns a Decision; the
// machine executes it. Policies are stateless apart from their embedded
// prefetchers, so one instance serves a whole run.
package policy

import (
	"fmt"

	"itsim/internal/kernel"
	"itsim/internal/pagetable"
	"itsim/internal/prefetch"
	"itsim/internal/sim"
)

// Kind enumerates the five policies.
type Kind int

// Policy kinds, in the paper's presentation order.
const (
	Async Kind = iota
	Sync
	SyncRunahead
	SyncPrefetch
	ITS
)

// Kinds returns all five policy kinds in presentation order.
func Kinds() []Kind { return []Kind{Async, Sync, SyncRunahead, SyncPrefetch, ITS} }

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case Async:
		return "Async"
	case Sync:
		return "Sync"
	case SyncRunahead:
		return "Sync_Runahead"
	case SyncPrefetch:
		return "Sync_Prefetch"
	case ITS:
		return "ITS"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindByName parses a policy name (as printed by String).
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("policy: unknown policy %q", name)
}

// NeedsPreExecCache reports whether the machine must carve half the LLC out
// as the pre-execute cache for this policy (paper §4.1).
func (k Kind) NeedsPreExecCache() bool { return k == SyncRunahead || k == ITS }

// Mode is what the faulting process does while the page is in flight.
type Mode uint8

// Fault-handling modes.
const (
	// SyncWait busy-waits on the CPU until DMA completion.
	SyncWait Mode = iota
	// AsyncBlock context-switches away and blocks until completion.
	AsyncBlock
)

// String names the mode.
func (m Mode) String() string {
	if m == AsyncBlock {
		return "async"
	}
	return "sync"
}

// Context is the fault information a policy sees.
type Context struct {
	// Now is the fault time.
	Now sim.Time
	// PID and VA identify the faulting access.
	PID int
	VA  uint64
	// AS is the faulting process's address space (for prefetch walks).
	AS *pagetable.AddressSpace
	// CurPriority is the faulting process's priority (larger = higher).
	CurPriority int
	// NextPriority is the next-to-be-run process's priority; valid only
	// when HasNext. This is the §3.2 comparison input.
	NextPriority int
	HasNext      bool
	// BusyChannels / Channels is the storage device's channel occupancy
	// at fault time — the busy_storage_channels gauge fed back into the
	// decision so adaptive policies can throttle prefetch when the
	// device saturates.
	BusyChannels int
	Channels     int
}

// Decision is what the machine executes for one major fault.
type Decision struct {
	// Mode selects busy-wait or block.
	Mode Mode
	// Prefetch lists page VAs to swap in alongside the victim.
	Prefetch []uint64
	// PrefetchWalkCost is CPU time consumed finding the candidates; for
	// sync modes it is carved out of the busy-wait window.
	PrefetchWalkCost sim.Time
	// PrefetchScanned is how many PTEs the candidate walk examined
	// (observability: EvPrefetchWalk's Value).
	PrefetchScanned int
	// PreExecute enables the fault-aware pre-execute engine for the
	// remainder of the busy-wait window.
	PreExecute bool
	// DispatchCost is the kernel-thread hand-off overhead (ITS only).
	DispatchCost sim.Time
	// SpinThreshold, when positive with Mode == SyncWait, bounds the
	// busy-wait: if the I/O has not completed within the threshold the
	// process blocks for the remainder (hybrid polling).
	SpinThreshold sim.Time
	// SelfSacrificing marks an ITS low-priority async decision (metrics).
	SelfSacrificing bool
	// PrefetchThrottled marks a prefetch walk skipped because the
	// device's channel occupancy saturated (observability: the machine
	// counts it and emits EvPrefetchThrottle).
	PrefetchThrottled bool
}

// Policy decides how each major fault is handled.
type Policy interface {
	Kind() Kind
	Name() string
	Decide(ctx *Context) Decision
}

// New constructs the policy for kind with default parameters.
func New(kind Kind) Policy {
	switch kind {
	case Async:
		return asyncPolicy{}
	case Sync:
		return syncPolicy{}
	case SyncRunahead:
		return runaheadPolicy{}
	case SyncPrefetch:
		return &prefetchPolicy{pf: prefetch.NewPageOnPage()}
	case ITS:
		return NewITS(ITSConfig{})
	default:
		panic(fmt.Sprintf("policy: unknown kind %d", kind))
	}
}

// Factory returns a constructor that builds a fresh kind policy per call:
// policies are stateful, and the smp model runs one instance per core. its
// configures ITS and is ignored for every other kind.
func Factory(kind Kind, its ITSConfig) func() Policy {
	return func() Policy {
		if kind == ITS {
			return NewITS(its)
		}
		return New(kind)
	}
}

type asyncPolicy struct{}

func (asyncPolicy) Kind() Kind   { return Async }
func (asyncPolicy) Name() string { return Async.String() }
func (asyncPolicy) Decide(*Context) Decision {
	return Decision{Mode: AsyncBlock}
}

type syncPolicy struct{}

func (syncPolicy) Kind() Kind   { return Sync }
func (syncPolicy) Name() string { return Sync.String() }
func (syncPolicy) Decide(*Context) Decision {
	return Decision{Mode: SyncWait}
}

type runaheadPolicy struct{}

func (runaheadPolicy) Kind() Kind   { return SyncRunahead }
func (runaheadPolicy) Name() string { return SyncRunahead.String() }
func (runaheadPolicy) Decide(*Context) Decision {
	return Decision{Mode: SyncWait, PreExecute: true}
}

type prefetchPolicy struct {
	pf *prefetch.PageOnPage
}

func (*prefetchPolicy) Kind() Kind   { return SyncPrefetch }
func (*prefetchPolicy) Name() string { return SyncPrefetch.String() }
func (p *prefetchPolicy) Decide(ctx *Context) Decision {
	res := p.pf.Candidates(ctx.AS, ctx.VA)
	return Decision{
		Mode:             SyncWait,
		Prefetch:         res.Pages,
		PrefetchWalkCost: res.WalkCost,
		PrefetchScanned:  res.Scanned,
	}
}

// ITSConfig tunes the ITS policy. Zero values select the paper defaults.
type ITSConfig struct {
	// PrefetchDegree is the self-improving thread's candidate count n.
	PrefetchDegree int
	// MaxScan bounds the page-table walk per fault.
	MaxScan int
	// DisableSelfSacrificing turns off §3.3 (ablation).
	DisableSelfSacrificing bool
	// DisablePreExecute turns off §3.4.2 (ablation).
	DisablePreExecute bool
	// DisablePrefetch turns off §3.4.1 (ablation).
	DisablePrefetch bool
	// PrefetchThrottleFraction, in (0, 1], makes the prefetcher
	// self-throttling: when at least this fraction of the device's
	// channels is busy at fault time, the candidate walk is skipped
	// entirely — the device has no spare parallelism for prefetch to
	// ride, so the walk would only burn window time and drop its
	// candidates at admission control. 0 disables throttling (the
	// historical behaviour).
	PrefetchThrottleFraction float64
}

// ITSPolicy is the paper's design. See package comment.
type ITSPolicy struct {
	cfg    ITSConfig
	walker *prefetch.VAWalker
}

// NewITS builds the ITS policy.
func NewITS(cfg ITSConfig) *ITSPolicy {
	w := prefetch.NewVAWalker()
	if cfg.PrefetchDegree > 0 {
		w.Degree = cfg.PrefetchDegree
	}
	if cfg.MaxScan > 0 {
		w.MaxScan = cfg.MaxScan
	}
	return &ITSPolicy{cfg: cfg, walker: w}
}

// Kind implements Policy.
func (*ITSPolicy) Kind() Kind { return ITS }

// Name implements Policy.
func (*ITSPolicy) Name() string { return ITS.String() }

// Decide implements the priority-aware thread selection policy (§3.2): the
// faulting process is low-priority iff its priority value is lower than the
// next-to-be-run process's; low-priority faults go to the self-sacrificing
// thread (async), high-priority ones to the self-improving thread
// (sync + prefetch + pre-execute).
func (p *ITSPolicy) Decide(ctx *Context) Decision {
	lowPriority := ctx.HasNext && ctx.CurPriority < ctx.NextPriority
	if lowPriority && !p.cfg.DisableSelfSacrificing {
		d := Decision{
			Mode:            AsyncBlock,
			DispatchCost:    kernel.ITSDispatchCost,
			SelfSacrificing: true,
		}
		// The self-sacrificing kernel thread still initiates the page
		// prefetch alongside the asynchronous I/O it marks (the fault
		// savings of §4.2.1 stack: ITS "not only" prefetches, it
		// "also" sacrifices) — the walk runs in kernel context while
		// the process is being switched out, so no busy-wait window is
		// consumed.
		if !p.cfg.DisablePrefetch {
			if p.throttled(ctx) {
				d.PrefetchThrottled = true
			} else {
				res := p.walker.Candidates(ctx.AS, ctx.VA)
				d.Prefetch = res.Pages
			}
		}
		return d
	}
	d := Decision{
		Mode:         SyncWait,
		PreExecute:   !p.cfg.DisablePreExecute,
		DispatchCost: kernel.ITSDispatchCost,
	}
	if !p.cfg.DisablePrefetch {
		if p.throttled(ctx) {
			d.PrefetchThrottled = true
		} else {
			res := p.walker.Candidates(ctx.AS, ctx.VA)
			d.Prefetch = res.Pages
			d.PrefetchWalkCost = res.WalkCost
			d.PrefetchScanned = res.Scanned
		}
	}
	return d
}

// throttled is the §3.4.1 admission-control feedback loop closed at the
// policy layer: when the busy_storage_channels signal says the device has
// (almost) no idle channels, the walk's candidates would be dropped at
// device admission anyway, so ITS skips the walk and keeps the window
// time for pre-execution instead.
func (p *ITSPolicy) throttled(ctx *Context) bool {
	f := p.cfg.PrefetchThrottleFraction
	return f > 0 && ctx.Channels > 0 &&
		float64(ctx.BusyChannels) >= f*float64(ctx.Channels)
}
