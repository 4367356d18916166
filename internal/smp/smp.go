// Package smp is the multi-core machine model: N simulated cores, each
// with its own L1 cache, TLB, SCHED_RR runqueue and policy instance
// (self-sacrificing/self-improving kernel threads run per core), sharing one
// LLC (minus per-core pre-execute carve-outs), one kernel/swap path and one
// ULL device whose channel and PCIe-link contention now comes from every
// core at once.
//
// The per-record executor — dispatch, fault windows, prefetch,
// pre-execution, swap-in management — lives in internal/exec, one exec.Core
// per simulated core; this package contributes the run loop: the
// bounded-skew coordinator, work stealing, and the pendingIO re-homing a
// steal requires.
//
// Each core advances on its own sim.Engine clock; a deterministic
// coordinator repeatedly picks the core with the earliest next-event time
// (ties broken by lowest core id) and steps it up to the next other-core
// event horizon, so the interleaving of shared-state accesses is a pure
// function of the configuration and seeds — runs are bit-reproducible.
// Cores may run ahead of each other within one executor step (a synchronous
// fault window is atomic), giving bounded-skew rather than lock-step
// semantics; every shared component (storage channels, PCIe link, DRAM)
// tolerates out-of-order timestamps by design.
//
// Work-stealing-aware dispatch: an idle core pulls a Ready process from a
// loaded core's runqueue (victim scan order (id+1)%N, so the choice is
// deterministic), paying one context-switch cost for the migration. This is
// the ITS scenario a single core cannot express: a high-priority process
// keeps busy-waiting on its core while its low-priority victim migrates to
// the idle core instead of blocking.
//
// With Cores=1 (the paper's §4.1 platform) there is nothing to steal and no
// other core to yield to, so the coordinator reduces to a plain dispatch
// loop; every single-machine run in the repository goes through it.
package smp

import (
	"errors"
	"fmt"

	"itsim/internal/cache"
	"itsim/internal/exec"
	"itsim/internal/kernel"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
)

// Machine is the N-core platform executing one batch under one policy: a
// shared exec platform plus the coordinator state in this package. The zero
// Machine holds no batch; Reset loads one.
type Machine struct {
	s *exec.Shared
}

// New builds an N-core machine (N = cfg.Cores; 0 means 1): Reset on a zero
// Machine.
func New(cfg machine.Config, newPolicy func() policy.Policy, batchName string, specs []machine.ProcessSpec) (*Machine, error) {
	m := &Machine{}
	if err := m.Reset(cfg, newPolicy, batchName, specs); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset loads a new batch into m, leaving it as New would build it.
// newPolicy must return a fresh policy instance per call — policies are
// stateful and each core runs its own. The caches of m's previous batch whose geometry is
// unchanged are emptied and reused rather than reallocated, so nothing
// carries over between batches; everything else is built fresh, and the
// previous batch's accessors (Kernel, LLC, Auditors) must not be used
// afterwards. Configuration problems come back as errors, not panics, and
// leave m unchanged: this is the path user input (the -cores flag) reaches.
func (m *Machine) Reset(cfg machine.Config, newPolicy func() policy.Policy, batchName string, specs []machine.ProcessSpec) error {
	if newPolicy == nil {
		return errors.New("smp: nil policy factory")
	}
	if len(specs) == 0 {
		return errors.New("smp: no processes")
	}
	if cfg.Cores == 0 {
		cfg.Cores = 1
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	pols := make([]policy.Policy, cfg.Cores)
	for i := range pols {
		if pols[i] = newPolicy(); pols[i] == nil {
			return errors.New("smp: policy factory returned nil")
		}
	}
	s, err := exec.NewShared(m.s, cfg, pols, batchName, specs)
	if err != nil {
		return err
	}
	m.s = s
	return nil
}

// Instrument attaches an event tracer and, when gaugeEvery > 0, a periodic
// gauge sampler (driven by core 0's clock). Call before Run. The per-core
// accounting auditors always run.
func (m *Machine) Instrument(trc *obs.Tracer, gaugeEvery sim.Time) {
	m.s.Instrument(trc, gaugeEvery)
}

// Auditors exposes the per-core accounting auditors (tests, tools).
func (m *Machine) Auditors() []*obs.Auditor {
	out := make([]*obs.Auditor, len(m.s.Cores))
	for i, c := range m.s.Cores {
		out[i] = c.Aud
	}
	return out
}

// Kernel exposes the shared kernel for inspection.
func (m *Machine) Kernel() *kernel.Kernel { return m.s.Krn }

// LLC exposes the shared last-level cache for inspection.
func (m *Machine) LLC() *cache.Cache { return m.s.LLC }

// CoreCount returns the number of simulated cores.
func (m *Machine) CoreCount() int { return len(m.s.Cores) }

// nextTime returns the earliest virtual time at which core c can do
// something, or false when the core is parked (nothing now or ever, barring
// other cores' progress). A core with no live local processes ignores its
// leftover trace events so it parks (or steals) instead of spinning.
func (m *Machine) nextTime(c *exec.Core) (sim.Time, bool) {
	if c.Cur != nil || c.Sch.NextToRun() != -1 {
		return c.Eng.Now(), true
	}
	t, ok := c.Eng.NextEventTime()
	if ok && c.Sch.Alive() == 0 {
		ok = false
	}
	if cand := m.stealCandidate(c); cand != nil {
		st := cand.ReadyAt
		if now := c.Eng.Now(); st < now {
			st = now
		}
		if !ok || st < t {
			return st, true
		}
	}
	return t, ok
}

// stealCandidate scans the other cores from (id+1)%N for a loaded victim: a
// core that is running one process while another sits Ready in its queue.
// Only Ready processes migrate — blocked ones have wake-up events tied to
// their owner's engine.
func (m *Machine) stealCandidate(c *exec.Core) *exec.Proc {
	n := len(m.s.Cores)
	for off := 1; off < n; off++ {
		v := m.s.Cores[(c.ID+off)%n]
		if v.Cur == nil {
			continue
		}
		if pid := v.Sch.NextToRun(); pid != -1 {
			return m.s.Procs[pid]
		}
	}
	return nil
}

// Run executes every process to completion under the deterministic
// coordinator and returns the metrics.
func (m *Machine) Run() (*metrics.Run, error) {
	s := m.s
	label := s.Run.Policy + "/" + s.Run.Batch
	s.Trc.Emit(obs.Event{Time: 0, Type: obs.EvRunBegin, PID: -1, Cause: label})
	for _, c := range s.Cores {
		c.Aud.Write(obs.Event{Time: 0, Type: obs.EvRunBegin, PID: -1, Core: c.ID, Cause: label})
	}
	s.ScheduleGauges()

	for s.Alive() > 0 {
		// One pass computes both the chosen core (first strict minimum
		// of next-event times) and the horizon — the earliest time any
		// OTHER core is due, i.e. the second minimum: the chosen core
		// executes up to it, then yields back so shared state mutates
		// in deterministic near-time order. Nothing mutates between
		// scanning a core and stepping, so the snapshot is exact. The
		// scan runs once per coordinator step (roughly once per
		// record when every core is busy), so it is kept to a single
		// walk — nextTime scans for steal candidates and is not free.
		best, bestT := -1, exec.Never
		horizon := exec.Never
		for i, c := range s.Cores {
			t, ok := m.nextTime(c)
			if !ok {
				continue
			}
			switch {
			case best == -1:
				best, bestT = i, t
			case t < bestT:
				// The displaced minimum is now the earliest
				// "other" core (it preceded every later one).
				best, bestT, horizon = i, t, bestT
			case t < horizon:
				horizon = t
			}
		}
		if best == -1 {
			return s.Run, fmt.Errorf("smp: deadlock — every core parked with %d processes unfinished", s.Alive())
		}
		if err := m.step(s.Cores[best], horizon); err != nil {
			return s.Run, err
		}
	}

	// The run-level time ledger, each entry set from the value it always
	// equals: the latest core clock, one switch cost per counted context
	// switch, the kernel's handler time, and (below) the sum of the
	// per-core idle.
	for _, c := range s.Cores {
		if c.Eng.Now() > s.Run.Makespan {
			s.Run.Makespan = c.Eng.Now()
		}
	}
	s.Run.ContextSwitchTime = kernel.ContextSwitchCost * sim.Time(s.Run.TotalContextSwitches())
	s.Run.FaultHandlerTime = s.Krn.Stats().HandlerTime
	s.Trc.Emit(obs.Event{Time: s.Run.Makespan, Type: obs.EvRunEnd, PID: -1})
	for _, c := range s.Cores {
		// Each core's CPU, switch and idle times are its auditor's fold,
		// closed at the core's own clock. The clock is read before the
		// drain, which may advance it through trailing gauge ticks.
		c.Met.LocalClock = c.Eng.Now()
		c.Aud.Write(obs.Event{Time: c.Met.LocalClock, Type: obs.EvRunEnd, PID: -1, Core: c.ID})
		c.Met.CPUTime, c.Met.ContextSwitchTime, c.Met.SchedulerIdle = c.Aud.Folded()
		s.Run.SchedulerIdle += c.Met.SchedulerIdle
		c.Eng.RunUntilIdle() // drain trailing completions and trace events
		if err := c.Aud.Err(); err != nil {
			return s.Run, fmt.Errorf("smp: core %d accounting audit failed: %w", c.ID, err)
		}
	}
	s.CollectInjection()
	return s.Run, nil
}

// step advances core c once: dispatch-and-run, one idle event, or one
// steal. The kernel's event attribution follows the stepping core.
func (m *Machine) step(c *exec.Core, horizon sim.Time) error {
	s := m.s
	if s.Cfg.MaxSimTime > 0 && c.Eng.Now() > s.Cfg.MaxSimTime {
		return fmt.Errorf("smp: core %d exceeded max simulated time %v", c.ID, s.Cfg.MaxSimTime)
	}
	s.Krn.SetCore(c.ID)
	if c.Cur == nil {
		pid := c.Sch.PickNext()
		if pid == -1 {
			// Prefer local events when they land no later than the
			// earliest steal; otherwise pull work over.
			evT, hasEv := c.Eng.NextEventTime()
			if cand := m.stealCandidate(c); cand != nil {
				st := cand.ReadyAt
				if now := c.Eng.Now(); st < now {
					st = now
				}
				if !hasEv || st < evT {
					m.steal(c, cand, st)
					return nil
				}
			}
			t0 := c.Eng.Now()
			c.Emit(obs.Event{Time: t0, Type: obs.EvSchedIdleBegin, PID: -1})
			if !c.Eng.StepOne() {
				return fmt.Errorf("smp: core %d has no runnable process and no pending event at %v", c.ID, t0)
			}
			c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvSchedIdleEnd, PID: -1})
			return nil
		}
		c.Dispatch(pid)
	}
	c.RunUntil(horizon)
	return nil
}

// steal migrates p (Ready on another core) onto core c at time at: the
// idle wait up to the victim's ready time is scheduler idle, the migration
// itself costs one context switch of state movement, and p's in-flight
// swap-in completions move onto this core's engine.
func (m *Machine) steal(c *exec.Core, p *exec.Proc, at sim.Time) {
	if at > c.Eng.Now() {
		c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvSchedIdleBegin, PID: -1})
		c.Eng.AdvanceTo(at) // fires nothing: local events are later by construction
		c.Emit(obs.Event{Time: at, Type: obs.EvSchedIdleEnd, PID: -1})
	}

	victim := m.s.Cores[p.Owner]
	victim.Sch.Remove(p.PID)
	victim.Met.MigratedAway++
	p.Owner = c.ID
	c.Sch.Add(p.PID, p.Spec.Priority)
	c.Met.Steals++

	// Re-home pending completions: past ones (on this clock) land now,
	// future ones reschedule here.
	moved := p.Pending
	p.Pending = nil
	for _, pio := range moved {
		victim.Eng.Cancel(pio.Ev)
		if pio.Done <= c.Eng.Now() {
			pio.Fire(c.Eng.Now())
		} else {
			c.SchedulePendingIO(p, pio)
		}
	}

	// Migration is pure state movement: one context-switch cost, charged
	// to the thief core and counted against the migrated process. Cache
	// and TLB pollution is emergent — the process starts cold here.
	p.Met.ContextSwitches++
	c.Eng.AdvanceTo(c.Eng.Now() + kernel.ContextSwitchCost)
	c.Emit(obs.Event{Time: c.Eng.Now(), Type: obs.EvContextSwitch, PID: p.PID,
		Dur: kernel.ContextSwitchCost, Cause: "migrate"})
}
