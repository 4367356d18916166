// Package kernel is the mini Linux-based kernel of the paper's simulator
// (§4.1): per-process address spaces over the 4-level page table, the
// major/minor page-fault handler (§3.1), and the swap path that moves pages
// between DRAM and the ULL device via DMA.
//
// The paper's flow (Figure 1): the MMU raises a page fault (1), the CPU
// enters kernel mode (2), the handler inspects the page-table entry and
// classifies the fault (3), and for a major fault instructs the DMA
// controller to move the page from the ULL device into DRAM (4). The ITS
// thread hook (5) is the policy layer in internal/policy; this package
// provides the mechanisms policies compose.
package kernel

import (
	"fmt"

	"itsim/internal/mem"
	"itsim/internal/obs"
	"itsim/internal/pagetable"
	"itsim/internal/sim"
	"itsim/internal/storage"
)

// Kernel-path cost constants. The paper argues ITS must live in kernel
// space because "switching to kernel-level designs takes only hundreds of
// nanoseconds, whereas transitioning to user-level designs demands several
// microseconds" (§3.2).
const (
	// FaultEntryCost is the user→kernel transition plus handler dispatch
	// charged on every page fault.
	FaultEntryCost = 500 * sim.Nanosecond
	// MinorFaultCost is the metadata-only service time of a minor fault.
	MinorFaultCost = 300 * sim.Nanosecond
	// ITSDispatchCost is the hop from the page-fault handler into an ITS
	// kernel thread (same kernel context, so only hundreds of ns).
	ITSDispatchCost = 150 * sim.Nanosecond
	// ContextSwitchCost is the measured full context switch (§4.1:
	// "7 µs on the machine with Intel Core i7-7800X").
	ContextSwitchCost = 7 * sim.Microsecond
	// SwitchPollutionCost is the memory-stall tail each switch drags in:
	// "frequently performing context switching may cause frequent CPU
	// cache misses and TLB shootdown" (§2.1.1). The switched-in process
	// re-misses its hot lines and refills the TLB; the cost is charged as
	// memory stall attributed to the departing process's switch.
	SwitchPollutionCost = 2500 * sim.Nanosecond
)

// Process is the kernel's per-process state (task_struct + mm_struct).
type Process struct {
	PID      int
	Name     string
	Priority int
	AS       *pagetable.AddressSpace
}

// Stats counts kernel activity.
type Stats struct {
	MajorFaults  uint64
	MinorFaults  uint64
	SwapIns      uint64
	SwapOuts     uint64
	Evictions    uint64
	FirstTouches uint64 // major faults caused by a page's first access
	DMARetries   uint64 // swap-in reads resubmitted after a transient DMA failure
	HandlerTime  sim.Time
}

// Kernel ties address spaces, physical memory and the swap device together.
type Kernel struct {
	// procs is indexed by pid; unregistered pids are nil.
	procs []*Process
	dram  *mem.DRAM
	dev   *storage.Device
	slots storage.SlotAllocator
	stats Stats
	// trc is the event tracer (nil = tracing off).
	trc *obs.Tracer
	// core is the simulated core currently executing kernel code; emitted
	// events are stamped with it. Single-core machines leave it 0; the
	// SMP coordinator sets it before every core step.
	core int
}

// SetTracer attaches the event tracer the swap path reports to (nil = off).
func (k *Kernel) SetTracer(trc *obs.Tracer) { k.trc = trc }

// SetCore records which simulated core is executing kernel code, for event
// attribution on multi-core machines.
func (k *Kernel) SetCore(core int) { k.core = core }

// New builds a kernel over the given memory and device.
func New(dram *mem.DRAM, dev *storage.Device) *Kernel {
	return &Kernel{dram: dram, dev: dev}
}

// DRAM returns the physical memory pool.
func (k *Kernel) DRAM() *mem.DRAM { return k.dram }

// Device returns the swap device.
func (k *Kernel) Device() *storage.Device { return k.dev }

// Stats returns a copy of the counters.
func (k *Kernel) Stats() Stats { return k.stats }

// AddProcess registers a process and creates its address space. The
// process table is indexed by pid, so pids are small non-negative integers
// (dense within a batch).
func (k *Kernel) AddProcess(pid int, name string, priority int) *Process {
	for len(k.procs) <= pid {
		k.procs = append(k.procs, nil)
	}
	if k.procs[pid] != nil {
		panic(fmt.Sprintf("kernel: duplicate pid %d", pid))
	}
	p := &Process{PID: pid, Name: name, Priority: priority, AS: pagetable.New()}
	k.procs[pid] = p
	return p
}

// Process returns the registered process.
func (k *Kernel) Process(pid int) *Process {
	if pid < 0 || pid >= len(k.procs) || k.procs[pid] == nil {
		panic(fmt.Sprintf("kernel: unknown pid %d", pid))
	}
	return k.procs[pid]
}

// MapRegion maps [base, base+bytes) into pid's address space as swapped-out
// pages, each with its own swap slot. This mirrors the paper's setup where
// "the ULL storage device size accommodates the memory footprint": the
// process image starts on the device, every first touch is a major fault,
// and the ITS prefetcher's page-table walk sees real swapped PTEs instead of
// holes.
func (k *Kernel) MapRegion(pid int, base, bytes uint64) {
	p := k.Process(pid)
	start := base &^ uint64(pagetable.PageSize-1)
	end := base + bytes
	for va := start; va < end; va += pagetable.PageSize {
		p.AS.MapSwapped(va, k.slots.Alloc())
	}
}

// Translation classifies one virtual access.
type Translation uint8

// Translation results.
const (
	// Present: page resident; Frame carries the physical frame.
	Present Translation = iota
	// SwappedOut: mapped but on the ULL device — a major fault.
	SwappedOut
	// Unmapped: first touch — becomes a major fault from swap after
	// implicit mapping (the process image lives in the swap area).
	Unmapped
)

// Translate looks va up in pid's address space. For Present it also touches
// the frame (reference bit, dirty on write). prefetchHit reports the first
// touch of a prefetcher-filled frame — a swap-cache hit that Linux services
// as a minor fault; the caller charges MinorFaultCost and credits the
// prefetcher.
func (k *Kernel) Translate(pid int, va uint64, write bool) (t Translation, frame mem.FrameID, prefetchHit bool) {
	return k.TranslateIn(k.Process(pid), va, write)
}

// TranslateIn is Translate on an already-resolved process: the executor
// resolves each Proc's kernel process once at construction and calls this
// per record, keeping the pid lookup out of the hot loop.
func (k *Kernel) TranslateIn(p *Process, va uint64, write bool) (t Translation, frame mem.FrameID, prefetchHit bool) {
	va &^= uint64(pagetable.PageSize - 1)
	pte, ok := p.AS.Lookup(va)
	if !ok || !pte.Mapped() {
		return Unmapped, mem.NoFrame, false
	}
	if pte.Present() {
		id := mem.FrameID(pte.Frame())
		prefetchHit = k.dram.Touch(id, write)
		if prefetchHit {
			k.stats.MinorFaults++
		}
		if write && !pte.Dirty() {
			// Already-dirty pages skip the second table walk: OR-ing
			// the flag in again is a no-op on PTE state and counters.
			p.AS.Update(va, func(e pagetable.PTE) pagetable.PTE { return e | pagetable.FlagDirty })
		}
		return Present, id, prefetchHit
	}
	return SwappedOut, mem.NoFrame, false
}

// slotFor returns va's swap slot, implicitly mapping first-touched pages
// into the swap area.
func (k *Kernel) slotFor(p *Process, va uint64) uint64 {
	pte, ok := p.AS.Lookup(va)
	if ok && pte.Swapped() {
		return pte.Frame()
	}
	if ok && pte.Present() {
		panic(fmt.Sprintf("kernel: slotFor on resident page pid=%d va=%#x", p.PID, va))
	}
	slot := k.slots.Alloc()
	p.AS.MapSwapped(va, slot)
	k.stats.FirstTouches++
	return slot
}

// FaultOutcome describes a started major-fault (or prefetch) swap-in.
type FaultOutcome struct {
	// Frame is the pinned destination frame.
	Frame mem.FrameID
	// Done is when the DMA lands the page in DRAM.
	Done sim.Time
	// EvictedVA/EvictedPID identify the victim page, if any.
	EvictedPID int
	EvictedVA  uint64
	Evicted    bool
	// WriteBack is true when the victim was dirty and a device write was
	// issued.
	WriteBack bool
}

// StartSwapIn begins the major-fault I/O for (pid, va) at time now:
// allocates a frame (evicting if needed), pins it, and submits the DMA read.
// The page becomes usable only after CompleteSwapIn at outcome.Done.
// prefetched marks prefetcher-initiated swap-ins (§3.4.1), which are
// accounted separately and are the first victims under memory pressure.
func (k *Kernel) StartSwapIn(now sim.Time, pid int, va uint64, prefetched bool) FaultOutcome {
	p := k.Process(pid)
	va &^= uint64(pagetable.PageSize - 1)
	slot := k.slotFor(p, va)

	var out FaultOutcome
	id, ok := k.dram.Allocate(pid, va, prefetched)
	if !ok {
		victim := k.dram.PickVictim()
		if victim == mem.NoFrame {
			panic("kernel: DRAM exhausted with every frame pinned")
		}
		vf := k.dram.Frame(victim)
		out.Evicted = true
		out.EvictedPID = vf.Owner
		out.EvictedVA = vf.VA
		out.WriteBack = vf.Dirty // capture before evict/Allocate reuse the slot
		k.evict(now, victim)
		id, ok = k.dram.Allocate(pid, va, prefetched)
		if !ok {
			panic("kernel: allocation failed after eviction")
		}
	}
	k.dram.Pin(id)
	done := k.submitRead(now, pid, va, slot)
	k.stats.SwapIns++
	if !prefetched {
		k.stats.MajorFaults++
	}
	if k.trc.Wants(obs.EvSwapIn) {
		cause := "demand"
		if prefetched {
			cause = "prefetch"
		}
		k.trc.Emit(obs.Event{Time: now, Type: obs.EvSwapIn, PID: pid, Core: k.core, VA: va, Dur: done - now, Cause: cause})
	}
	out.Frame = id
	out.Done = done
	return out
}

// submitRead issues the swap-in DMA read. It follows the Linux swap
// path's error handling (cf. Zhong et al., "Revisiting Swapping in
// User-space"): a transient DMA failure is retried with exponential
// backoff, bounded because the injector never fails an attempt at its
// configured retry maximum. With no fault injector attached the first
// attempt always lands. Each injected fault observed on the swap-in path
// is emitted as a typed event, all stamped at the submission time with the
// injected delay in Dur so the event stream stays tidy.
func (k *Kernel) submitRead(now sim.Time, pid int, va, slot uint64) sim.Time {
	var backoff sim.Time
	at := now
	for attempt := 0; ; attempt++ {
		res := k.dev.SubmitRetry(at, storage.Read, slot, 4096, attempt)
		if k.trc.Wants(obs.EvFaultInject) {
			if res.Stalled > 0 {
				k.trc.Emit(obs.Event{Time: now, Type: obs.EvFaultInject, PID: pid, Core: k.core, VA: va, Dur: res.Stalled, Cause: "stall"})
			}
			if res.InjectedTail > 0 {
				k.trc.Emit(obs.Event{Time: now, Type: obs.EvFaultInject, PID: pid, Core: k.core, VA: va, Dur: res.InjectedTail, Cause: "tail"})
			}
			if res.Failed {
				k.trc.Emit(obs.Event{Time: now, Type: obs.EvFaultInject, PID: pid, Core: k.core, VA: va, Cause: "dma"})
			}
		}
		if !res.Failed {
			return res.Done
		}
		if attempt == 0 {
			backoff = k.dev.Injector().Config().RetryBackoff
		}
		k.stats.DMARetries++
		if k.trc.Wants(obs.EvIORetry) {
			k.trc.Emit(obs.Event{Time: now, Type: obs.EvIORetry, PID: pid, Core: k.core, VA: va, Dur: backoff, Value: int64(attempt + 1)})
		}
		// The failure is detected at the would-be completion time; the
		// resubmission waits out the backoff on top of that.
		at = res.Done + backoff
		backoff *= 2
	}
}

// evict swaps a victim frame out: writes it back if dirty and returns its
// page to the swapped state.
func (k *Kernel) evict(now sim.Time, victim mem.FrameID) {
	vf := k.dram.Frame(victim)
	owner := k.Process(vf.Owner)
	slot := k.slots.Alloc()
	if k.trc.Wants(obs.EvEvict) {
		k.trc.Emit(obs.Event{Time: now, Type: obs.EvEvict, PID: vf.Owner, Core: k.core, VA: vf.VA})
	}
	if vf.Dirty {
		// Asynchronous write-back: occupies a device channel and bus
		// bandwidth but nothing waits on it.
		k.dev.SubmitPage(now, storage.Write, slot)
		k.stats.SwapOuts++
		if k.trc.Wants(obs.EvWriteBack) {
			k.trc.Emit(obs.Event{Time: now, Type: obs.EvWriteBack, PID: vf.Owner, Core: k.core, VA: vf.VA})
		}
	}
	owner.AS.MakeSwapped(vf.VA, slot)
	k.dram.Release(victim, true)
	k.stats.Evictions++
}

// CompleteSwapIn finishes a swap-in: unpins the frame and makes the page
// present in the owner's page table.
func (k *Kernel) CompleteSwapIn(pid int, va uint64, frame mem.FrameID) {
	p := k.Process(pid)
	va &^= uint64(pagetable.PageSize - 1)
	k.dram.Unpin(frame)
	p.AS.MakePresent(va, uint64(frame))
}

// ChargeHandler accrues kernel handler time for reporting.
func (k *Kernel) ChargeHandler(d sim.Time) { k.stats.HandlerTime += d }

// ResidentPages returns how many of pid's pages are resident.
func (k *Kernel) ResidentPages(pid int) int { return k.Process(pid).AS.PresentPages() }
