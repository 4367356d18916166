package cluster

// The fleet resilience plane: machine-level chaos (internal/chaos windows
// applied as timed state transitions), and the request-lifecycle reactions
// to it — per-tenant attempt deadlines, deterministic retries with seeded
// jitter, hedged requests, priority-aware load shedding, and deterministic
// re-homing of a crashed or draining machine's queue.
//
// Everything here is inert by construction when the fleet is configured
// without chaos, deadlines, hedging, or shedding: no PRNG streams exist,
// the timer engine stays empty, every machine stays Healthy with health
// exactly 1.0, and the coordinator's event order is byte-identical to the
// pre-resilience fleet.

import (
	"itsim/internal/chaos"
	"itsim/internal/obs"
	"itsim/internal/sim"
)

// machState is a fleet machine's serving state.
type machState uint8

const (
	// stateHealthy serves normally.
	stateHealthy machState = iota
	// stateDegraded serves through a brownout window: epochs started now
	// run BrownMult slower.
	stateDegraded
	// stateDraining is a graceful leave in progress: the in-flight epoch
	// finishes, nothing new is accepted, the queue has been re-homed.
	stateDraining
	// stateDown is out of service (crashed or flapped off).
	stateDown
	// stateRejoining serves cache-cold after downtime: epochs started now
	// run WarmMult slower.
	stateRejoining
)

// eligible reports whether the machine may accept new requests and start
// epochs.
func (m *machineState) eligible() bool {
	return m.state == stateHealthy || m.state == stateDegraded || m.state == stateRejoining
}

// currentMult is the makespan multiplier an epoch started in the machine's
// present state runs under.
func (f *fleet) currentMult(m *machineState) float64 {
	switch m.state {
	case stateDegraded:
		return f.chaosCfg.BrownMult
	case stateRejoining:
		return f.chaosCfg.WarmMult
	}
	return 1
}

// scaleTime applies a makespan multiplier to a virtual duration; mult 1
// returns t unchanged so un-degraded epochs take the historical code path
// exactly.
func scaleTime(t sim.Time, mult float64) sim.Time {
	if mult == 1 {
		return t
	}
	return sim.Time(float64(t) * mult)
}

// Health-score EWMA parameters. Chaos-free fleets sample 1.0 forever and
// the score stays exactly 1.0 (0.8 + 0.2 == 1.0 in IEEE doubles).
const (
	healthDecay        = 0.8
	healthTimeoutMult  = 0.7
	healthCrashMult    = 0.25
	healthRejoinScore  = 0.5
	healthInitialScore = 1.0
)

// retryJitterTweak decorrelates retry-backoff jitter from the request's
// trace seed.
const retryJitterTweak = 0x72657472795f6a74 // "retry_jt"

// mix64 is the splitmix64 finalizer: the jitter hash off the per-request
// seed tree.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// attempt is one dispatch of a request onto a machine: the primary, a
// retry, or a hedged duplicate. The machine queues hold attempts.
type attempt struct {
	req   *request
	hedge bool
	// machine is the queue the attempt currently sits in (or ran on); -1
	// while parked before any placement.
	machine   int
	running   bool
	finished  bool
	cancelled bool
}

// timerKind discriminates the coordinator's deadline timers.
type timerKind uint8

const (
	timerTimeout timerKind = iota
	timerRetry
	timerHedge
)

// timer is one pending lifecycle deadline, a handler on the fleet's timer
// engine: timers due at one instant fire in creation order.
type timer struct {
	f    *fleet
	kind timerKind
	a    *attempt // timerTimeout
	r    *request // timerRetry / timerHedge
	d    sim.Time // deadline, backoff delay, or hedge delay (event Dur)
}

// Fire implements sim.Handler.
func (t *timer) Fire(now sim.Time) {
	switch t.kind {
	case timerTimeout:
		t.f.fireTimeout(t, now)
	case timerRetry:
		t.f.fireRetry(t, now)
	case timerHedge:
		t.f.fireHedge(t, now)
	}
}

// nextChaos is the earliest pending machine-state instant: a timed state
// ending or a chaos window starting.
func (f *fleet) nextChaos() sim.Time {
	t := never
	for _, m := range f.machines {
		if m.stateUntil < t {
			t = m.stateUntil
		}
		if m.sched != nil {
			if n := m.sched.Next(); n < t {
				t = n
			}
		}
	}
	return t
}

// anyEligible reports whether some machine can accept requests.
func (f *fleet) anyEligible() bool {
	for _, m := range f.machines {
		if m.eligible() {
			return true
		}
	}
	return false
}

// queuedTotal is the fleet-wide admission-control queue depth.
func (f *fleet) queuedTotal() int {
	n := len(f.parked)
	for _, m := range f.machines {
		n += len(m.queue)
	}
	return n
}

// place routes an attempt onto a machine queue (or parks it while no
// machine is eligible), emitting EvRequestRoute for every queue insertion
// — re-homed attempts included, so a trace shows each hop.
func (f *fleet) place(a *attempt, now sim.Time) {
	if !f.anyEligible() {
		a.machine = -1
		f.parked = append(f.parked, a)
		return
	}
	for i, m := range f.machines {
		f.loads[i] = Load{ID: m.id, Queued: len(m.queue), Running: len(m.running),
			Health: m.health, Eligible: m.eligible()}
	}
	pick := f.router.Pick(a.req.tenant, f.loads)
	if pick < 0 || pick >= len(f.machines) || !f.machines[pick].eligible() {
		// Defensive: a router returning an out-of-range or ineligible
		// machine falls back to the first eligible one.
		for _, m := range f.machines {
			if m.eligible() {
				pick = m.id
				break
			}
		}
	}
	a.machine = pick
	f.machines[pick].queue = append(f.machines[pick].queue, a)
	if f.want(obs.EvRequestRoute) {
		f.emit(obs.Event{Time: now, Type: obs.EvRequestRoute, PID: -1,
			Core: pick, Value: int64(a.req.id), Cause: f.cfg.Tenants[a.req.tenant].Name})
	}
}

// dispatchParked re-places parked attempts once a machine is eligible
// again, in park order.
func (f *fleet) dispatchParked(now sim.Time) {
	if len(f.parked) == 0 || !f.anyEligible() {
		return
	}
	ps := f.parked
	f.parked = nil
	for _, a := range ps {
		if a.cancelled || a.req.resolved {
			continue
		}
		f.place(a, now)
	}
}

// removeQueued deletes a cancelled attempt from wherever it waits.
func (f *fleet) removeQueued(a *attempt) {
	if a.machine >= 0 {
		q := f.machines[a.machine].queue
		for i, qa := range q {
			if qa == a {
				f.machines[a.machine].queue = append(q[:i], q[i+1:]...)
				return
			}
		}
		return
	}
	for i, pa := range f.parked {
		if pa == a {
			f.parked = append(f.parked[:i], f.parked[i+1:]...)
			return
		}
	}
}

// dispatch creates and places a new attempt for r, arming its deadline
// timer.
func (f *fleet) dispatch(r *request, hedge bool, now sim.Time) {
	a := &attempt{req: r, hedge: hedge, machine: -1}
	r.attempts = append(r.attempts, a)
	r.live++
	if !hedge {
		r.dispatches++
	}
	f.place(a, now)
	if d := f.cfg.Tenants[r.tenant].Deadline; d > 0 {
		f.timers.ScheduleHandler(now+d, &timer{f: f, kind: timerTimeout, a: a, d: d})
	}
}

// resolve marks r's lifecycle over and cancels any other live attempts.
func (f *fleet) resolve(r *request, winner *attempt) {
	r.resolved = true
	r.live = 0
	f.resolved++
	for _, a := range r.attempts {
		if a == winner || a.finished || a.cancelled {
			continue
		}
		a.cancelled = true
		if !a.running {
			f.removeQueued(a)
		}
	}
}

// stepChaos applies every machine-state transition pending at now, in
// machine-id order; per machine, timed state endings fire before new
// chaos windows.
func (f *fleet) stepChaos(now sim.Time) {
	for _, m := range f.machines {
		if m.stateUntil == now {
			f.endState(m, now)
		}
		if m.sched == nil {
			continue
		}
		for m.sched.Crash.Peek() == now {
			f.applyCrash(m, now)
			m.sched.Crash.Advance()
		}
		for m.sched.Flap.Peek() == now {
			f.applyFlap(m, now)
			m.sched.Flap.Advance()
		}
		for m.sched.Brown.Peek() == now {
			f.applyBrown(m, now)
			m.sched.Brown.Advance()
		}
	}
}

// endState finishes the machine's timed state window.
func (f *fleet) endState(m *machineState, now sim.Time) {
	switch m.state {
	case stateDown:
		m.stats.DownNs += int64(now - m.downSince)
		m.state = stateRejoining
		m.stateUntil = now + f.chaosCfg.Warm
		m.health = healthRejoinScore
		if f.want(obs.EvMachineUp) {
			f.emit(obs.Event{Time: now, Type: obs.EvMachineUp, PID: -1, Core: m.id, Cause: "rejoin"})
		}
	case stateRejoining:
		m.state = stateHealthy
		m.stateUntil = never
	case stateDegraded:
		m.state = stateHealthy
		m.stateUntil = never
		if f.want(obs.EvMachineUp) {
			f.emit(obs.Event{Time: now, Type: obs.EvMachineUp, PID: -1, Core: m.id, Cause: "brownout-end"})
		}
	default:
		// Healthy/Draining machines carry no timed window.
		m.stateUntil = never
	}
}

// applyCrash hard-kills the machine: the in-flight epoch is aborted (its
// attempts re-home, the machine keeps only the busy time it truly spent),
// the queue re-homes, and the machine is Down for CrashDown. A window
// landing on an already-Down machine is dropped.
func (f *fleet) applyCrash(m *machineState, now sim.Time) {
	if m.state == stateDown {
		return
	}
	m.stats.Crashes++
	m.health *= healthCrashMult
	if f.want(obs.EvMachineDown) {
		f.emit(obs.Event{Time: now, Type: obs.EvMachineDown, PID: -1, Core: m.id,
			Dur: f.chaosCfg.CrashDown, Cause: "crash"})
	}
	var rehome []*attempt
	if m.running != nil {
		m.stats.BusyNs += int64(now - m.epochStart)
		for _, a := range m.running {
			a.running = false
			if a.cancelled || a.finished || a.req.resolved {
				continue
			}
			rehome = append(rehome, a)
		}
		m.running, m.epochRun = nil, nil
	}
	rehome = append(rehome, m.queue...)
	m.queue = nil
	m.state = stateDown
	m.stateUntil = now + f.chaosCfg.CrashDown
	m.downSince = now
	m.stats.Rehomed += uint64(len(rehome))
	for _, a := range rehome {
		f.place(a, now)
	}
}

// applyFlap starts a graceful leave: the queue re-homes immediately, the
// in-flight epoch (if any) finishes before the machine goes Down. Windows
// landing on a machine already Draining, Down, or Rejoining are dropped.
func (f *fleet) applyFlap(m *machineState, now sim.Time) {
	if m.state != stateHealthy && m.state != stateDegraded {
		return
	}
	m.stats.Flaps++
	if f.want(obs.EvMachineDrain) {
		f.emit(obs.Event{Time: now, Type: obs.EvMachineDrain, PID: -1, Core: m.id})
	}
	rehome := m.queue
	m.queue = nil
	m.stats.Rehomed += uint64(len(rehome))
	if m.running == nil {
		f.goDown(m, now, "flap")
	} else {
		m.state = stateDraining
		m.stateUntil = never
	}
	for _, a := range rehome {
		f.place(a, now)
	}
}

// goDown transitions an idle machine into its flap downtime.
func (f *fleet) goDown(m *machineState, now sim.Time, cause string) {
	m.state = stateDown
	m.stateUntil = now + f.chaosCfg.FlapDown
	m.downSince = now
	if f.want(obs.EvMachineDown) {
		f.emit(obs.Event{Time: now, Type: obs.EvMachineDown, PID: -1, Core: m.id,
			Dur: f.chaosCfg.FlapDown, Cause: cause})
	}
}

// applyBrown opens a brownout window: for BrownDur the machine is Degraded
// and epochs it starts run BrownMult slower. Only a Healthy machine
// browns out; windows landing elsewhere are dropped.
func (f *fleet) applyBrown(m *machineState, now sim.Time) {
	if m.state != stateHealthy {
		return
	}
	m.stats.Brownouts++
	m.state = stateDegraded
	m.stateUntil = now + f.chaosCfg.BrownDur
	if f.want(obs.EvMachineDegrade) {
		f.emit(obs.Event{Time: now, Type: obs.EvMachineDegrade, PID: -1, Core: m.id,
			Dur: f.chaosCfg.BrownDur, Value: int64(f.chaosCfg.BrownMult * 1000)})
	}
}

// fireTimeout cancels an attempt that outlived its tenant deadline, then
// retries the request (after seeded backoff) or fails it.
func (f *fleet) fireTimeout(t *timer, now sim.Time) {
	a := t.a
	r := a.req
	if a.cancelled || a.finished || r.resolved {
		return
	}
	spec := &f.cfg.Tenants[r.tenant]
	f.tenants[r.tenant].TimedOut++
	if f.want(obs.EvReqTimeout) {
		f.emit(obs.Event{Time: now, Type: obs.EvReqTimeout, PID: -1, Core: a.machine,
			Value: int64(r.id), Dur: t.d, Cause: spec.Name})
	}
	a.cancelled = true
	if a.machine >= 0 {
		f.machines[a.machine].health *= healthTimeoutMult
	}
	if !a.running {
		f.removeQueued(a)
	}
	r.live--
	if r.live > 0 {
		return // a hedge (or the primary) is still in flight
	}
	if r.dispatches < 1+spec.Retries {
		// Capped exponential backoff with seeded jitter off the request's
		// seed-tree position: deterministic, and decorrelated between
		// requests and between retry rounds.
		base := spec.Deadline / 4
		if base < sim.Microsecond {
			base = sim.Microsecond
		}
		idx := r.dispatches - 1
		if idx > 4 {
			idx = 4
		}
		backoff := base << idx
		seed := requestSeed(spec.baseSeed(r.tenant, f.cfg.Seed), r.seq)
		jitter := sim.Time(mix64(seed^retryJitterTweak^uint64(r.dispatches)*requestSeedMix) % uint64(base/2+1))
		delay := backoff + jitter
		f.timers.ScheduleHandler(now+delay, &timer{f: f, kind: timerRetry, r: r, d: delay})
		return
	}
	f.tenants[r.tenant].Failed++
	f.resolve(r, nil)
}

// fireRetry re-submits a timed-out request.
func (f *fleet) fireRetry(t *timer, now sim.Time) {
	r := t.r
	if r.resolved {
		return
	}
	spec := &f.cfg.Tenants[r.tenant]
	f.tenants[r.tenant].Retries++
	if f.want(obs.EvReqRetry) {
		f.emit(obs.Event{Time: now, Type: obs.EvReqRetry, PID: -1,
			Value: int64(r.id), Dur: t.d, Cause: spec.Name})
	}
	f.dispatch(r, false, now)
}

// fireHedge dispatches the hedged duplicate if the request is still
// waiting on its primary.
func (f *fleet) fireHedge(t *timer, now sim.Time) {
	r := t.r
	if r.resolved || r.hedged || r.live == 0 {
		return
	}
	spec := &f.cfg.Tenants[r.tenant]
	r.hedged = true
	f.tenants[r.tenant].Hedges++
	if f.want(obs.EvReqHedge) {
		f.emit(obs.Event{Time: now, Type: obs.EvReqHedge, PID: -1,
			Value: int64(r.id), Dur: t.d, Cause: spec.Name})
	}
	f.dispatch(r, true, now)
}

// admit applies priority-aware load shedding at arrival: when the fleet's
// total queue depth has reached ShedDepth, requests from every tenant
// below the highest configured priority are rejected outright.
func (f *fleet) admit(r *request) bool {
	if f.cfg.ShedDepth <= 0 {
		return true
	}
	if f.queuedTotal() < f.cfg.ShedDepth {
		return true
	}
	if f.cfg.Tenants[r.tenant].Priority >= f.maxPrio {
		return true
	}
	f.tenants[r.tenant].Shed++
	f.resolved++
	r.resolved = true
	if f.want(obs.EvReqShed) {
		f.emit(obs.Event{Time: r.arrival, Type: obs.EvReqShed, PID: -1,
			Value: int64(r.id), Cause: f.cfg.Tenants[r.tenant].Name})
	}
	return false
}

// armHedge schedules the request's hedge timer if the tenant hedges and
// its latency tracker has warmed up.
func (f *fleet) armHedge(r *request, now sim.Time) {
	spec := &f.cfg.Tenants[r.tenant]
	if !spec.Hedge {
		return
	}
	tr := f.trackers[r.tenant]
	if tr == nil || !tr.Ready() {
		return
	}
	delay := tr.Quantile(0.99)
	if delay < 1 {
		delay = 1
	}
	f.timers.ScheduleHandler(now+delay, &timer{f: f, kind: timerHedge, r: r, d: delay})
}

// chaosSchedules attaches per-machine chaos schedules when chaos is
// enabled; a disabled config leaves sched nil everywhere (byte-inert).
func (f *fleet) chaosSchedules() {
	if !f.cfg.Chaos.Enabled() {
		f.chaosCfg = chaos.New(chaos.Config{}).Config()
		return
	}
	inj := chaos.New(f.cfg.Chaos)
	f.chaosCfg = inj.Config()
	for _, m := range f.machines {
		m.sched = inj.Machine(m.id)
	}
}

// resilienceActive reports whether any resilience feature is configured —
// the gate for emitting FleetSummary.Chaos.
func (c *Config) resilienceActive() bool {
	if c.Chaos.Enabled() || c.ShedDepth > 0 {
		return true
	}
	for _, t := range c.Tenants {
		if t.Deadline > 0 || t.Hedge {
			return true
		}
	}
	return false
}
