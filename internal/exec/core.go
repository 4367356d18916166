package exec

import (
	"math"

	"itsim/internal/cache"
	"itsim/internal/kernel"
	"itsim/internal/mem"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/pagetable"
	"itsim/internal/policy"
	"itsim/internal/preexec"
	"itsim/internal/sched"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

// Never is the no-horizon sentinel: RunUntil(Never) executes without ever
// pausing for a coordinator, and no core is due later than Never.
const Never = sim.Time(math.MaxInt64)

// Core is one simulated CPU: a private virtual clock, L1, optional TLB,
// SCHED_RR runqueue, policy instance and pre-execute carve-out, plus an
// always-on accounting auditor checking per-core time conservation.
type Core struct {
	// S is the shared platform state behind this core.
	S *Shared
	// ID is the core number (0 on a one-core machine).
	ID int
	// Eng is the core's virtual clock and event queue.
	Eng *sim.Engine
	// Sch is the core's runqueue.
	Sch *sched.RR
	// L1 is the core's private first-level cache.
	L1 *cache.Cache
	// TLB is the core's private TLB (nil = TLB model off): a fully
	// associative cache of pid-tagged page numbers, one set of TLBEntries
	// ways with 1-byte lines and true-LRU replacement.
	TLB *cache.Cache
	// PX is the core's pre-execute engine and carve-out cache (nil when
	// the policy has no pre-execute cache).
	PX *preexec.Engine
	// Pol is this core's policy instance (policies are stateful).
	Pol policy.Policy
	// Aud is the core's always-on accounting auditor; its fold is the
	// core's time ledger.
	Aud *obs.Auditor
	// Met is the per-core metrics record. Its CPU, switch and idle times
	// are copied from Aud when the run ends.
	Met *metrics.Core

	// Cur is the dispatched process; it stays dispatched across horizon
	// pauses so a coordinator hand-off is not a spurious context switch.
	Cur *Proc
	// lastPXPid tracks whose pre-execute state the hardware holds (-1 =
	// none yet).
	lastPXPid int
	// DispatchedAt is when the current dispatch put its process on the
	// CPU, for occupancy reporting on leave events.
	DispatchedAt sim.Time

	// pctx is the scratch policy context reused across faults, so Decide
	// never forces a heap allocation on the fault path.
	pctx policy.Context
	// pxEnv is the pre-execute environment built once per core: its
	// callbacks close over the core and read pxP/pxAS, set per episode.
	// Without this, every synchronous fault allocated five closures.
	pxEnv  preexec.Env
	pxInit bool
	pxP    *Proc
	pxAS   *pagetable.AddressSpace
}

// Emit stamps the event with the core id and routes it to the core's
// auditor and the shared tracer. The auditor consumes every ledger event
// (dispatch, preempt, block, finish, context switch, idle begin and end),
// so those are emitted unguarded; other emission sites guard with S.Want
// first so disabled types cost no event construction.
func (c *Core) Emit(ev obs.Event) {
	ev.Core = c.ID
	if c.Aud.Wants(ev.Type) {
		c.Aud.Write(ev)
	}
	c.S.Trc.Emit(ev)
}

// observe is the core's scheduler hook: it keeps steal-eligibility
// timestamps fresh and mirrors unblock transitions into the trace.
func (c *Core) observe(pid int, from, to sched.State) {
	if to == sched.Ready {
		c.S.Procs[pid].ReadyAt = c.Eng.Now()
	}
	if from == sched.Blocked && to == sched.Ready && c.S.Trc.Wants(obs.EvUnblock) {
		c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvUnblock, PID: pid})
	}
}

// Dispatch puts pid on this core's CPU.
func (c *Core) Dispatch(pid int) {
	s := c.S
	p := s.Procs[pid]
	if p.wasBlocked {
		wait := c.Eng.Now() - p.blockedAt
		p.Met.BlockedWait += wait
		s.Run.BlockedHist.Observe(wait)
		p.wasBlocked = false
	}
	p.sliceLeft = c.Sch.SliceFor(pid)
	c.DispatchedAt = c.Eng.Now()
	c.Met.Dispatches++
	c.Emit(obs.Event{Time: c.DispatchedAt, Type: obs.EvDispatch, PID: pid,
		Cause: p.Spec.Name, Value: int64(p.Spec.Priority)})
	c.Cur = p
}

// RunUntil executes the dispatched process until it blocks, exhausts its
// slice, finishes — or crosses the coordinator's horizon, in which case it
// stays dispatched (Cur != nil) and resumes on the core's next step.
func (c *Core) RunUntil(horizon sim.Time) {
	s := c.S
	p := c.Cur
	for {
		rec, ok := c.peek(p, 0)
		if !ok {
			p.Met.FinishTime = c.Eng.Now()
			p.Met.Finished = true
			c.Sch.Finish(p.PID)
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvProcFinish, PID: p.PID,
				Dur: c.Eng.Now() - c.DispatchedAt})
			c.Cur = nil
			if c.Sch.Alive() > 0 {
				c.chargeSwitch(p)
			}
			return
		}
		// Compute gap (once per record, even across fault retries).
		if rec.Gap > 0 && !p.gapPaid {
			p.instCarry += uint64(rec.Gap)
			d := sim.Time(p.instCarry / InstPerNs)
			p.instCarry %= InstPerNs
			if d > 0 {
				c.advance(p, d)
			}
			p.Met.Instructions += uint64(rec.Gap)
		}
		p.gapPaid = true
		// The access itself (may busy-wait or block).
		if c.access(p, rec) {
			c.Cur = nil
			return
		}
		p.Met.Instructions++
		c.pop(p)
		// Slice accounting: RR rotates only when someone else is ready.
		if p.sliceLeft <= 0 {
			// Re-check the runaway guard at slice boundaries too, so a
			// lone process cannot run unbounded inside one dispatch.
			if s.Cfg.MaxSimTime > 0 && c.Eng.Now() > s.Cfg.MaxSimTime {
				c.Sch.Expire(p.PID)
				c.Cur = nil
				return
			}
			if s.Want[obs.EvSliceExpiry] {
				c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvSliceExpiry, PID: p.PID})
			}
			if c.Sch.Runnable() > 0 {
				c.Sch.Expire(p.PID)
				c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPreempt, PID: p.PID,
					Dur: c.Eng.Now() - c.DispatchedAt})
				c.Cur = nil
				c.chargeSwitch(p)
				return
			}
			p.sliceLeft = c.Sch.SliceFor(p.PID)
		}
		// Horizon pause — checked after at least one record so a tied
		// horizon cannot starve the coordinator of progress.
		if c.Eng.Now() >= horizon {
			return
		}
	}
}

// chargeSwitch charges the 7 µs context switch paid whenever the CPU leaves
// a process (block, slice expiry, exit with successors). Dispatching the
// next process is covered by this single save+restore charge, matching the
// paper's one-switch-per-transition accounting. The switch event carries
// the full clock cost (including the pollution tail), which the core's
// auditor folds into its switch time, so per-core time conservation closes
// exactly.
func (c *Core) chargeSwitch(p *Proc) {
	p.Met.ContextSwitches++
	cost := kernel.ContextSwitchCost + kernel.SwitchPollutionCost
	if c.TLB != nil {
		// Mechanistic mode: the switch flushes the TLB; the pollution
		// cost emerges from the subsequent misses instead of a
		// constant.
		c.TLB.Flush()
		cost = kernel.ContextSwitchCost
	}
	c.advance(nil, cost)
	if c.TLB == nil {
		// The pollution tail (TLB shootdown, re-missing hot cache lines,
		// §2.1.1) surfaces as memory stall.
		p.Met.MemStall += kernel.SwitchPollutionCost
	}
	// Dur is the full clock advance (switch plus pollution tail) so the
	// auditor's time-conservation ledger balances.
	c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvContextSwitch, PID: p.PID, Dur: cost})
}

// peek returns the i-th unexecuted record (0 = next), filling the
// lookahead ring from the generator up to it. Peeks beyond the Lookahead
// window report end-of-window: the pre-execute engine's visibility is
// bounded by the hardware instruction window it models. Records decode
// straight into ring slots — the executor's per-record path performs no
// allocation.
func (c *Core) peek(p *Proc, i int) (trace.Record, bool) {
	if i >= Lookahead {
		return trace.Record{}, false
	}
	for !p.drained && p.size <= i {
		if !p.Spec.Gen.Next(&p.look[(p.head+p.size)&(Lookahead-1)]) {
			p.drained = true
			break
		}
		p.size++
	}
	if i < p.size {
		return p.look[(p.head+i)&(Lookahead-1)], true
	}
	return trace.Record{}, false
}

// pop consumes the head record.
func (c *Core) pop(p *Proc) {
	p.gapPaid = false
	p.head = (p.head + 1) & (Lookahead - 1)
	p.size--
}

// advance moves this core's clock forward by d (firing due local events)
// and charges p's slice and CPU occupancy. The core's CPU time is its
// auditor's fold of the dispatch spans.
func (c *Core) advance(p *Proc, d sim.Time) {
	if d <= 0 {
		return
	}
	c.Eng.AdvanceTo(c.Eng.Now() + d)
	if p != nil {
		p.sliceLeft -= d
		p.Met.CPUTime += d
	}
}

// access performs one memory access for p. It returns true when the process
// blocked (asynchronous fault) and execution must leave RunUntil; the
// faulting record stays at the head for retry on wake-up.
func (c *Core) access(p *Proc, rec trace.Record) (blockedOut bool) {
	s := c.S
	write := rec.Kind == trace.Store
	for {
		tr, _, prefHit := s.Krn.TranslateIn(p.KP, rec.Addr, write)
		if tr == kernel.Present {
			if prefHit {
				// Swap-cache hit on a prefetched page: minor fault.
				p.Met.MinorFaults++
				p.Met.PrefetchUseful++
				if s.Want[obs.EvPrefetchHit] {
					c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPrefetchHit,
						PID: p.PID, VA: rec.Addr})
				}
				c.advance(p, kernel.MinorFaultCost)
				s.Krn.ChargeHandler(kernel.MinorFaultCost)
			}
			c.cacheAccess(p, rec.Addr)
			return false
		}
		// Major fault.
		if c.majorFault(p, rec) {
			return true
		}
		// Synchronous completion: retry the translation.
	}
}

// cacheAccess charges the (TLB →) L1 → LLC → DRAM path.
func (c *Core) cacheAccess(p *Proc, addr uint64) {
	s := c.S
	key := Tagged(p.PID, addr)
	if c.TLB != nil {
		if hit, _, _ := c.TLB.AccessFill(key >> pagetable.PageShift); !hit {
			// TLB miss: the hardware walker re-reads the page tables.
			c.advance(p, TLBMissCost)
			p.Met.MemStall += TLBMissCost
		}
	}
	if c.L1.Access(key) {
		c.advance(p, L1Hit)
		return
	}
	p.Met.LLCAccesses++
	// The LLC lookup and the miss-path fill are fused into one set scan
	// (cache.AccessFill); nothing between the unfused pair ever touched
	// the caches — event handlers fired by advance are scheduler- and
	// kernel-only — so fusing is invisible to the simulation. The L1
	// refills use FillCold: the key just missed L1 and only invalidations
	// can intervene, so the match scan is provably dead.
	hit, victim, wasValid := s.LLC.AccessFill(key)
	if hit {
		c.advance(p, L1Hit+LLCHit)
		// The LLC-hit service time is still the CPU waiting on the
		// memory hierarchy (paper: idle accrues "during the cache
		// misses"), here an L1 miss served by the LLC.
		p.Met.MemStall += LLCHit
		c.L1.FillCold(key)
		return
	}
	if wasValid {
		// Inclusive hierarchy: back-invalidate the displaced line from
		// every private L1 (same as llcFill, without re-filling).
		addr := s.LLC.AddrOf(victim)
		for _, cc := range s.Cores {
			cc.L1.Invalidate(addr)
		}
	}
	p.Met.LLCMisses++
	stall := L1Hit + LLCHit + mem.AccessLatency
	c.advance(p, stall)
	p.Met.MemStall += LLCHit + mem.AccessLatency
	c.L1.FillCold(key)
}

// ensureSwapIn starts (or joins) the swap-in of (pid, page-of-va) and
// returns its completion time. The completion runs as an event on this
// core's engine and migrates with the process if it is stolen.
func (c *Core) ensureSwapIn(p *Proc, va uint64, kind swapKind) sim.Time {
	s := c.S
	page := va &^ uint64(pagetable.PageSize-1)
	if pio := p.pendingFor(page); pio != nil {
		return pio.Done
	}
	// A page picked as a prefetch candidate can become resident before the
	// candidates are issued (an earlier swap-in completing during the
	// dispatch/walk time); treat that as already done.
	if pte, ok := p.KP.AS.Lookup(page); ok && pte.Present() {
		return c.Eng.Now()
	}
	out := s.Krn.StartSwapIn(c.Eng.Now(), p.PID, page, kind != swapDemand)
	pio := s.getPendingIO()
	pio.Page, pio.Frame, pio.Done = page, out.Frame, out.Done
	c.SchedulePendingIO(p, pio)
	if kind == swapPrefetch {
		p.Met.PrefetchIssued++
		if s.Want[obs.EvPrefetchIssue] {
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPrefetchIssue,
				PID: p.PID, VA: page, Dur: out.Done - c.Eng.Now()})
		}
	}
	return out.Done
}

// SchedulePendingIO schedules pio's completion (page-table update, unpin,
// pending-list cleanup) on this core's engine and lists it on p, where
// later faults and prefetches of the page find it and a steal can re-home
// it. The completion is the PendingIO itself (sim.Handler), so scheduling
// allocates neither a closure nor an event struct.
func (c *Core) SchedulePendingIO(p *Proc, pio *PendingIO) {
	pio.p, pio.s = p, c.S
	pio.Ev = c.Eng.ScheduleHandler(pio.Done, pio)
	p.Pending = append(p.Pending, pio)
}

// clusterSwapIn fetches the swapped-out siblings of va's aligned
// SwapClusterPages-page cluster, returning the last completion time.
func (c *Core) clusterSwapIn(p *Proc, va uint64) sim.Time {
	cluster := uint64(c.S.Cfg.SwapClusterPages) * pagetable.PageSize
	base := va &^ (cluster - 1)
	victim := va &^ uint64(pagetable.PageSize-1)
	as := p.KP.AS
	var last sim.Time
	for pv := base; pv < base+cluster; pv += pagetable.PageSize {
		if pv == victim {
			continue
		}
		if pte, ok := as.Lookup(pv); !ok || !pte.Swapped() {
			continue
		}
		if d := c.ensureSwapIn(p, pv, swapCluster); d > last {
			last = d
		}
	}
	return last
}

// tryPrefetch starts the swap-in of a prefetch candidate, subject to device
// admission control: if the page's channel is busy the candidate is dropped
// (readahead throttling), so demand reads never queue behind a prefetch
// flood.
func (c *Core) tryPrefetch(p *Proc, va uint64) {
	s := c.S
	page := va &^ uint64(pagetable.PageSize-1)
	if p.pendingFor(page) != nil {
		return
	}
	pte, ok := p.KP.AS.Lookup(page)
	if !ok || !pte.Swapped() {
		return
	}
	if !s.Krn.Device().FreeChannelAt(pte.Frame(), c.Eng.Now()) {
		p.Met.PrefetchDropped++
		if s.Want[obs.EvPrefetchDrop] {
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPrefetchDrop, PID: p.PID, VA: page})
		}
		return
	}
	c.ensureSwapIn(p, page, swapPrefetch)
}

// majorFault runs the paper's Figure 1 flow for one major fault. It returns
// true when the process blocked (async mode).
func (c *Core) majorFault(p *Proc, rec trace.Record) (blocked bool) {
	s := c.S
	// The begin event goes out at entry, before any cost is charged: the
	// policy decision (and thus the handling mode) is only known later, so
	// the mode rides on the matching end event.
	faultStart := c.Eng.Now()
	if s.Want[obs.EvMajorFaultBegin] {
		c.Emit(obs.Event{Time: faultStart, Type: obs.EvMajorFaultBegin, PID: p.PID, VA: rec.Addr})
	}
	p.Met.MajorFaults++
	c.advance(p, kernel.FaultEntryCost)
	s.Krn.ChargeHandler(kernel.FaultEntryCost)

	// The context lives on the Core (scratch, reused every fault): passing
	// a stack struct through the Policy interface would force a heap
	// allocation per fault.
	c.pctx = policy.Context{
		Now:          c.Eng.Now(),
		PID:          p.PID,
		VA:           rec.Addr,
		AS:           p.KP.AS,
		CurPriority:  p.Spec.Priority,
		BusyChannels: s.Krn.Device().BusyChannelsAt(c.Eng.Now()),
		Channels:     s.Krn.Device().Config().Channels,
	}
	if next := c.Sch.NextToRun(); next != -1 {
		c.pctx.HasNext = true
		c.pctx.NextPriority = s.Procs[next].Spec.Priority
	}
	d := c.Pol.Decide(&c.pctx)
	if d.PrefetchThrottled {
		p.Met.PrefetchThrottled++
		if s.Want[obs.EvPrefetchThrottle] {
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPrefetchThrottle, PID: p.PID,
				VA: rec.Addr, Value: int64(c.pctx.BusyChannels)})
		}
	}
	if d.DispatchCost > 0 {
		c.advance(p, d.DispatchCost)
		s.Krn.ChargeHandler(d.DispatchCost)
	}

	// Start the victim page's DMA first (it is the critical path), then
	// issue prefetches so they queue behind it.
	done := c.ensureSwapIn(p, rec.Addr, swapDemand)
	// Huge-I/O clusters: the fault fetches the whole aligned cluster and
	// waits for all of it (§1's "larger I/O sizes").
	if s.Cfg.SwapClusterPages > 1 {
		if d2 := c.clusterSwapIn(p, rec.Addr); d2 > done {
			done = d2
		}
	}

	if d.Mode == policy.AsyncBlock {
		for _, pv := range d.Prefetch {
			c.tryPrefetch(p, pv)
		}
		return c.block(p, rec.Addr, faultStart, done, "async")
	}

	// Hybrid polling (Spin_Block): if the I/O will outlive the spin
	// threshold, burn the threshold busy-waiting and then block for the
	// remainder. The executor-level spin budget extends the same bounded
	// spin to every otherwise-unbounded synchronous wait: when a
	// misbehaving device (tail spike, channel stall, retried DMA) pushes
	// the predicted window past the budget, the wait demotes to an async
	// context switch instead of burning the core — ITS degrades toward
	// Vanilla_Async rather than spinning out the fault.
	spin, spinCause := d.SpinThreshold, "spin"
	if spin <= 0 && s.Cfg.SpinBudget > 0 {
		spin, spinCause = s.Cfg.SpinBudget, "demote"
	}
	if spin > 0 && done-c.Eng.Now() > spin {
		if spinCause == "demote" {
			p.Met.Demotions++
			if s.Want[obs.EvDemote] {
				c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvDemote, PID: p.PID,
					VA: rec.Addr, Dur: done - c.Eng.Now(), Value: int64(spin)})
			}
		}
		p.Met.StorageWait += spin
		c.advance(p, spin)
		return c.block(p, rec.Addr, faultStart, done, spinCause)
	}

	// Synchronous busy-wait. The whole window is storage-induced stall
	// for this process (its own progress is paused even while ITS steals
	// the cycles for prefetching/pre-execution).
	windowStart := c.Eng.Now()
	if w := done - windowStart; w > 0 {
		p.Met.StorageWait += w
		s.Run.SyncWaitHist.Observe(w)
	}
	if d.PrefetchWalkCost > 0 {
		walk := d.PrefetchWalkCost
		if rem := done - c.Eng.Now(); walk > rem && rem > 0 {
			walk = rem // the walk cannot usefully exceed the wait
		}
		c.advance(p, walk)
		p.Met.StolenPrefetch += walk
		c.Met.StolenPrefetch += walk
		if s.Want[obs.EvPrefetchWalk] {
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPrefetchWalk, PID: p.PID,
				Dur: walk, Value: int64(d.PrefetchScanned)})
		}
	}
	for _, pv := range d.Prefetch {
		c.tryPrefetch(p, pv)
	}
	preexecuted := false
	if d.PreExecute && c.PX != nil {
		window := done - c.Eng.Now()
		if window > 0 {
			c.preExecute(p, rec, window)
			preexecuted = true
		}
	}
	if rem := done - c.Eng.Now(); rem > 0 {
		c.advance(p, rem)
	}
	if preexecuted {
		c.endRecovery(p, windowStart, done)
	}
	if s.Want[obs.EvMajorFaultEnd] {
		c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvMajorFaultEnd, PID: p.PID,
			VA: rec.Addr, Dur: c.Eng.Now() - faultStart, Cause: "sync"})
	}
	return false
}

// block ends a fault that waits off the core (the asynchronous mode, or
// the rest of a spin-then-block wait): the process blocks until its page
// lands at done, and the core pays the context switch. It reports true,
// majorFault's "blocked" result.
func (c *Core) block(p *Proc, va uint64, faultStart, done sim.Time, mode string) bool {
	c.Sch.Block(p.PID)
	p.blockedAt = c.Eng.Now()
	p.wasBlocked = true
	c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvBlock, PID: p.PID,
		VA: va, Dur: c.Eng.Now() - c.DispatchedAt})
	c.scheduleFaultEnd(p, va, faultStart, done, mode)
	// Wake up when the page lands (after the completion event at the same
	// timestamp, thanks to FIFO event ordering).
	p.scheduleWake(c, done)
	// Switching away is the asynchronous mode's price: 7 µs of pure state
	// movement — longer than the ULL I/O itself.
	c.chargeSwitch(p)
	return true
}

// scheduleFaultEnd arranges the EvMajorFaultEnd of an asynchronous or
// spin-then-block fault to fire when its DMA lands, keeping the event
// stream monotonic while other processes run inside the window. Blocked
// processes never migrate, so the owning core's engine is the right home.
func (c *Core) scheduleFaultEnd(p *Proc, va uint64, faultStart, done sim.Time, mode string) {
	if !c.S.Want[obs.EvMajorFaultEnd] {
		return
	}
	c.Eng.Schedule(done, func(now sim.Time) {
		c.Emit(obs.Event{Time: now, Type: obs.EvMajorFaultEnd, PID: p.PID,
			VA: va, Dur: now - faultStart, Cause: mode})
	})
}

// endRecovery applies the §3.4.3 termination mode after a pre-execution
// episode: an interrupt-driven DMA completion costs InterruptCost; a
// polling timer makes the process resume at the first tick after the DMA
// landed, overshooting by up to one poll interval.
func (c *Core) endRecovery(p *Proc, windowStart, done sim.Time) {
	s := c.S
	if s.Cfg.RecoveryPoll <= 0 {
		c.advance(p, InterruptCost)
		p.Met.RecoveryOverhead += InterruptCost
		s.Krn.ChargeHandler(InterruptCost)
		if s.Want[obs.EvRecovery] {
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvRecovery, PID: p.PID,
				Dur: InterruptCost, Cause: "interrupt"})
		}
		return
	}
	elapsed := done - windowStart
	over := (s.Cfg.RecoveryPoll - elapsed%s.Cfg.RecoveryPoll) % s.Cfg.RecoveryPoll
	if over > 0 {
		c.advance(p, over)
		p.Met.RecoveryOverhead += over
		p.Met.StorageWait += over
	}
	if s.Want[obs.EvRecovery] {
		c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvRecovery, PID: p.PID,
			Dur: over, Cause: "poll"})
	}
}

// pxEnvFor points the core's cached pre-execute environment at p and the
// faulting record at the head of p's ring. The callbacks are built once per
// core (closing only over the core) and dereference pxP/pxAS, so an episode
// costs zero allocations instead of five closures. The window is the ring
// itself: records 1..Lookahead-1 after the head, decoded once per episode
// and handed over in place as the (at most two) ring pieces they occupy.
// Each process owns its generator, so decoding ahead of need changes when a
// record is drawn, never which record it is.
func (c *Core) pxEnvFor(p *Proc, faulting trace.Record) {
	c.pxP = p
	c.pxAS = p.KP.AS
	if !c.pxInit {
		c.pxInit = true
		s := c.S
		c.pxEnv = preexec.Env{
			Page: func(va uint64) (present, inv bool) {
				pte, _ := c.pxAS.Lookup(va)
				return pte.Present(), pte.INV()
			},
			SetPTEINV: func(va uint64) {
				c.pxAS.Update(va, setINV)
			},
			LLCContains: func(addr uint64) bool {
				return s.LLC.Contains(Tagged(c.pxP.PID, addr))
			},
			LLCFill: func(addr uint64) {
				s.llcFill(Tagged(c.pxP.PID, addr))
				// The fill reads DRAM: reference the backing frame so
				// CLOCK sees the page as live (pre-execution protects
				// the pages it warms).
				if pte, ok := c.pxAS.Lookup(addr); ok && pte.Present() {
					s.Krn.DRAM().Touch(mem.FrameID(pte.Frame()), false)
				}
			},
			ClearPTEINV: func(va uint64) {
				c.pxAS.Update(va, clearINV)
			},
		}
	}
	c.peek(p, Lookahead-1)
	start, n := (p.head+1)&(Lookahead-1), p.size-1
	first := min(n, Lookahead-start)
	c.pxEnv.Window = [2][]trace.Record{p.look[start : start+first], p.look[:n-first]}
	c.pxEnv.FaultVA = faulting.Addr
	c.pxEnv.FaultDst = faulting.Dst
}

func setINV(e pagetable.PTE) pagetable.PTE   { return e | pagetable.FlagINV }
func clearINV(e pagetable.PTE) pagetable.PTE { return e &^ pagetable.FlagINV }

// preExecute runs this core's fault-aware pre-execute engine during a
// synchronous wait window, warming the shared LLC through its private
// carve-out.
func (c *Core) preExecute(p *Proc, faulting trace.Record, window sim.Time) {
	s := c.S
	if c.lastPXPid != p.PID {
		// The hardware starts empty: only another process's state needs
		// flushing (Run resets the registers and store buffer itself).
		if c.lastPXPid >= 0 {
			c.PX.FlushHardware()
		}
		c.lastPXPid = p.PID
	}
	c.pxEnvFor(p, faulting)
	res := c.PX.Run(window, &c.pxEnv)
	if res.Used > 0 {
		c.advance(p, res.Used)
		p.Met.StolenPreexec += res.Used - res.Overhead
		c.Met.StolenPreexec += res.Used - res.Overhead
		p.Met.RecoveryOverhead += res.Overhead
	}
	p.Met.PreexecInstrs += res.Instrs
	p.Met.PreexecValid += res.Valid
	p.Met.PreexecFills += res.Fills
	if s.Want[obs.EvPreexecWindow] {
		c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvPreexecWindow, PID: p.PID,
			Dur: res.Used, Value: int64(res.Instrs)})
	}
}
