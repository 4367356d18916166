package exec

import (
	"itsim/internal/kernel"
	"itsim/internal/mem"
	"itsim/internal/metrics"
	"itsim/internal/pagetable"
	"itsim/internal/sched"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

// Proc is the per-process runtime state. The steal-eligibility fields
// (Owner, ReadyAt, Pending) are maintained unconditionally; on a single-core
// Shared they are inert bookkeeping.
type Proc struct {
	// PID is the process id (index into Shared.Procs).
	PID int
	// Spec is the declaration the process was built from.
	Spec ProcessSpec
	// Met is the per-process metrics record.
	Met *metrics.Process
	// KP is the kernel-side process, resolved once at construction so the
	// per-record path skips the kernel's pid lookup.
	KP *kernel.Process

	// Owner is the core whose runqueue currently holds the process.
	Owner int
	// ReadyAt is when the process last became Ready (owner-core clock);
	// a thief's clock jumps to at least this time before stealing.
	ReadyAt sim.Time
	// Pending is the machine's only record of this process's in-flight
	// swap-ins: a fault or prefetch of a page listed here joins that DMA
	// instead of starting another. The completions live on the owner
	// core's engine and migrate with the process. Entries are always
	// unfired: a completion drops itself from the list in the same event
	// that fires it, which is what makes cancel-then-recycle of the
	// underlying sim.Event safe. Ultra-low-latency reads keep the list a
	// few entries long, so pendingFor scans it.
	Pending []*PendingIO

	// look is the lookahead ring of fetched-but-unexecuted records,
	// Lookahead long. Records are decoded straight into ring slots, so
	// the hot loop never allocates per record; head indexes the next
	// record to execute and size counts the buffered records.
	look []trace.Record
	head int
	size int
	// drained means the generator is exhausted.
	drained bool

	// wake is the process's reusable unblock handler: at most one wake-up
	// is outstanding per process (a blocked process cannot block again
	// before it fires), so scheduling it allocates nothing.
	wake wakeHandler

	sliceLeft sim.Time
	// instCarry holds leftover instructions that didn't fill a whole
	// nanosecond at InstPerNs.
	instCarry uint64
	// blockedAt is when the process blocked on asynchronous I/O;
	// wasBlocked makes the next dispatch charge the block→dispatch span
	// as storage-induced stall.
	blockedAt  sim.Time
	wasBlocked bool
	// gapPaid marks that the head record's compute gap has been charged,
	// so a faulting access retried after an asynchronous block does not
	// pay (or count) its gap twice.
	gapPaid bool
}

// wakeHandler unblocks a process when its asynchronous I/O lands. Blocked
// processes never migrate, so the runqueue captured at block time is still
// the right one when the completion fires.
type wakeHandler struct {
	sch *sched.RR
	pid int
}

// Fire implements sim.Handler.
func (w *wakeHandler) Fire(sim.Time) { w.sch.Unblock(w.pid) }

// scheduleWake arms p's wake-up on core c at time done. Must only be called
// with p freshly blocked (one outstanding wake per process).
func (p *Proc) scheduleWake(c *Core, done sim.Time) {
	p.wake.sch = c.Sch
	p.wake.pid = p.PID
	c.Eng.ScheduleHandler(done, &p.wake)
}

// pendingFor returns the in-flight swap-in of page, or nil.
func (p *Proc) pendingFor(page uint64) *PendingIO {
	for _, pio := range p.Pending {
		if pio.Page == page {
			return pio
		}
	}
	return nil
}

// dropPending removes pio from the process's in-flight completion list.
func (p *Proc) dropPending(pio *PendingIO) {
	for i, q := range p.Pending {
		if q == pio {
			p.Pending = append(p.Pending[:i], p.Pending[i+1:]...)
			return
		}
	}
}

// PendingIO is one in-flight swap-in of one page of its process. Its
// completion event calls Fire directly (no closure), and fired structs
// return to a free list on Shared. The SMP steal path cancels Ev on the
// victim core's engine and either fires the completion at once (already
// due on the thief's clock) or reschedules it on the thief's.
type PendingIO struct {
	Page  uint64
	Frame mem.FrameID
	Done  sim.Time
	Ev    *sim.Event

	// p/s are the owning process and platform, set when the completion is
	// scheduled; next links the free list.
	p    *Proc
	s    *Shared
	next *PendingIO
}

// Fire implements sim.Handler: the swap-in lands — update the page table,
// drop the entry from the process's pending list and recycle the struct.
// It is the only code that lands a swap-in.
func (pio *PendingIO) Fire(sim.Time) {
	s, p := pio.s, pio.p
	s.Krn.CompleteSwapIn(p.PID, pio.Page, pio.Frame)
	p.dropPending(pio)
	s.releasePendingIO(pio)
}

// swapKind distinguishes why a page is being swapped in.
type swapKind uint8

const (
	// swapDemand is the faulting page itself.
	swapDemand swapKind = iota
	// swapPrefetch is a prefetcher candidate (counted in prefetch
	// metrics; first victim under pressure).
	swapPrefetch
	// swapCluster is a sibling page of a huge-I/O cluster fault (not a
	// prefetch for metrics purposes, not separately a major fault).
	swapCluster
)

// Tagged folds the pid into the address's upper bits so per-process virtual
// addresses share the physically-indexed caches without aliasing.
func Tagged(pid int, addr uint64) uint64 {
	return addr&(1<<pagetable.VABits-1) | uint64(pid+1)<<pagetable.VABits
}
