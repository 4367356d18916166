// Package cluster is the fleet-scale serving model: N multi-core machines
// (internal/smp) fed by open-loop multi-tenant request arrivals
// (internal/workload) through a pluggable routing policy.
//
// The paper evaluates I/O-mode policies on one machine running one batch;
// serving fleets run the same question at the next level up — when every
// machine busy-waits synchronously (or steals idle time with ITS), what
// happens to per-tenant tail latency and SLO attainment across a cluster?
// This package answers that with the same determinism contract as the rest
// of the simulator: a fleet run is a pure function of its Config, so the
// same seed produces byte-identical per-tenant summaries.
//
// The model is a second-level event loop over whole machines, mirroring how
// internal/smp coordinates cores: fleet time advances to the earliest of
// (next request arrival, next machine-epoch completion), ties resolved
// completions-first then machine-id order. An idle machine with queued
// requests starts an "epoch": it pops up to Slots requests, runs them to
// completion as one smp batch (each request is one process whose trace is a
// scaled, per-request-seeded benchmark workload), and stays busy until the
// epoch's makespan elapses in fleet time. Request latency is therefore
// queueing delay plus epoch completion time — the quantity the per-tenant
// histograms digest.
//
// Epoch runs keep their own local clocks starting at zero: a fleet trace is
// a sequence of ordinary RunBegin/RunEnd frames (one per epoch, batch named
// "m<machine>/e<epoch>") that `itssim observe` replays unchanged, plus
// fleet-scope EvRequestArrive/Route/Done events between frames carrying
// global fleet time.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"itsim/internal/chaos"
	"itsim/internal/exec"
	"itsim/internal/fault"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/workload"
)

// never is the no-pending-event sentinel (the value of exec.Never).
const never = sim.Time(math.MaxInt64)

// DefaultSlots is the per-epoch request batch bound when Config.Slots is
// unset: enough multiprogramming to contend on DRAM (the paper's batches
// run six processes) without unbounded queue drains.
const DefaultSlots = 4

// clusterFaultTweak mixes the machine id into per-machine fault-injector
// seeds, so machines see decorrelated fault schedules from one fleet seed.
// Machine 0's seed is untouched (id×tweak = 0), preserving the 1-machine
// fleet ⇔ bare smp byte-identity.
const clusterFaultTweak = 0x666c6565742d666c // "fleet-fl"

// MaxMachines bounds the fleet size a Config may request.
const MaxMachines = 256

// Config describes one fleet run. The zero value is not usable: Machines
// and Tenants are required.
type Config struct {
	// Machines is the number of smp machines in the fleet.
	Machines int
	// Slots bounds how many queued requests one epoch batches together
	// (0 = DefaultSlots).
	Slots int
	// Policy is the I/O-mode policy every machine runs; ITS tunes the
	// ITS kind (zero value = paper defaults).
	Policy policy.Kind
	ITS    policy.ITSConfig
	// Routing names the routing policy (see RouterNames; "" =
	// round-robin).
	Routing string
	// Tenants declares the serving tenants.
	Tenants []TenantSpec
	// Scale multiplies every tenant's per-request workload scale
	// (0 = 1.0).
	Scale float64
	// Seed perturbs every tenant's trace and arrival seeds at once;
	// 0 keeps the pinned per-benchmark seeds.
	Seed uint64
	// Cores selects each machine's core count (0 = Machine config or the
	// single-core default).
	Cores int
	// Machine overrides the per-machine platform configuration; nil
	// derives one from the tenant mix like core.Options does per batch.
	Machine *machine.Config
	// Fault configures device fault injection on every machine; machine
	// i runs with the seed mixed by i so the fleet sees decorrelated
	// fault schedules.
	Fault fault.Config
	// Chaos configures machine-level chaos injection: crash/restart
	// windows, brownouts, and flapping, applied as timed machine-state
	// transitions. The zero value injects nothing and is byte-inert.
	Chaos chaos.Config
	// ShedDepth enables priority-aware load shedding: once the fleet's
	// total queued-request count reaches it, arriving requests from any
	// tenant below the highest configured priority are rejected.
	// 0 disables shedding.
	ShedDepth int
	// SpinBudget bounds synchronous fault waits on every machine
	// (0 = unbounded).
	SpinBudget sim.Time
	// Tracer receives the fleet event stream: per-epoch machine frames
	// plus fleet-scope request events (nil = tracing off).
	Tracer *obs.Tracer
	// GaugeInterval enables periodic gauge sampling inside epochs.
	GaugeInterval sim.Time
}

func (c *Config) slots() int {
	if c.Slots <= 0 {
		return DefaultSlots
	}
	return c.Slots
}

// Validate rejects unusable fleet configurations; it is the gate the CLI's
// user input passes through.
func (c *Config) Validate() error {
	if c.Machines < 1 || c.Machines > MaxMachines {
		return fmt.Errorf("cluster: machine count must be in [1,%d], got %d", MaxMachines, c.Machines)
	}
	if c.Slots < 0 {
		return fmt.Errorf("cluster: slots must be >= 0, got %d", c.Slots)
	}
	if len(c.Tenants) == 0 {
		return fmt.Errorf("cluster: no tenants")
	}
	if len(c.Tenants) > MaxTenants {
		return fmt.Errorf("cluster: more than %d tenants", MaxTenants)
	}
	seen := make(map[string]bool, len(c.Tenants))
	for _, t := range c.Tenants {
		if err := t.Validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("cluster: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
	}
	if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) || c.Scale < 0 {
		return fmt.Errorf("cluster: scale must be finite and >= 0, got %v", c.Scale)
	}
	if _, err := NewRouter(c.Routing, c.Machines, len(c.Tenants)); err != nil {
		return err
	}
	if err := c.Fault.Validate(); err != nil {
		return err
	}
	if err := c.Chaos.Validate(); err != nil {
		return err
	}
	if c.ShedDepth < 0 {
		return fmt.Errorf("cluster: shed depth must be >= 0, got %d", c.ShedDepth)
	}
	if c.SpinBudget < 0 {
		return fmt.Errorf("cluster: spin budget must be >= 0, got %v", c.SpinBudget)
	}
	return nil
}

// maxScale is the largest effective per-request workload scale across
// tenants — the fleet's analogue of core.Options.Scale for slice sizing.
func (c *Config) maxScale() float64 {
	s := 0.0
	for _, t := range c.Tenants {
		if ts := t.scale(c.Scale); ts > s {
			s = ts
		}
	}
	return s
}

// machineConfig builds machine id's platform configuration for an epoch
// with dataIntensive data-intensive processes, following the same
// derivation core.Options applies per batch.
func (c *Config) machineConfig(dataIntensive, machineID int) machine.Config {
	cfg := machine.DefaultConfig()
	if c.Machine != nil {
		cfg = *c.Machine
	} else {
		cfg.MinSlice, cfg.MaxSlice = exec.SliceRange(c.maxScale())
		cfg.DRAMRatio = exec.DRAMRatioFor(dataIntensive)
	}
	if c.Cores != 0 {
		cfg.Cores = c.Cores
	}
	if c.Fault.Enabled() {
		cfg.Fault = c.Fault
	}
	if c.SpinBudget > 0 {
		cfg.SpinBudget = c.SpinBudget
	}
	if cfg.Fault.Enabled() {
		cfg.Fault.Seed ^= uint64(machineID) * clusterFaultTweak
	}
	return cfg
}

// specFor builds the process spec and scaled profile of one request.
func (c *Config) specFor(ti, seq int) (machine.ProcessSpec, workload.Profile) {
	t := c.Tenants[ti]
	prof, err := workload.ProfileFor(t.Bench, t.scale(c.Scale))
	if err != nil {
		// Run vetted every tenant's bench at its scale already.
		panic(err)
	}
	prof.Seed = requestSeed(t.baseSeed(ti, c.Seed), seq)
	return machine.ProcessSpec{
		Name:     t.Bench,
		Tenant:   t.Name,
		Gen:      workload.New(prof),
		Priority: t.Priority,
		BaseVA:   workload.BaseVA,
	}, prof
}

// request is one serving request's lifecycle record. A request resolves
// exactly once: completed (done), shed at admission, or failed after
// exhausting its deadline + retries.
type request struct {
	id         int // global id in arrival order
	tenant     int // tenant index
	seq        int // per-tenant sequence number
	arrival    sim.Time
	machine    int
	completion sim.Time
	syncWait   sim.Time
	done       bool

	// Resilience lifecycle (all inert without deadlines/hedging/chaos:
	// one attempt, resolved at its completion).
	resolved   bool
	shed       bool
	failed     bool
	hedged     bool
	hedgeWin   bool
	dispatches int // primary + retries (hedges excluded): the backoff exponent
	live       int // non-cancelled, unfinished attempts in flight
	attempts   []*attempt
}

// buildRequests materializes every tenant's open-loop arrival sequence and
// merges them into one deterministic fleet-wide order: ascending arrival
// time, ties by tenant index then sequence number.
func (c *Config) buildRequests() []*request {
	var reqs []*request
	for ti, t := range c.Tenants {
		arr := workload.NewArrivals(workload.ArrivalConfig{
			Rate:    t.Rate,
			Pattern: t.Pattern,
			Period:  t.Period,
			Amp:     t.Amp,
			Seed:    t.baseSeed(ti, c.Seed) ^ arrivalSeedTweak,
		})
		for s := 0; s < t.Requests; s++ {
			reqs = append(reqs, &request{tenant: ti, seq: s, arrival: arr.Next()})
		}
	}
	sort.Slice(reqs, func(i, j int) bool {
		a, b := reqs[i], reqs[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.tenant != b.tenant {
			return a.tenant < b.tenant
		}
		return a.seq < b.seq
	})
	for i, r := range reqs {
		r.id = i
	}
	return reqs
}

// machineState is one fleet machine's coordinator-side state.
type machineState struct {
	id    int
	queue []*attempt
	// running is the epoch in flight (nil when idle); epochRun its
	// already-computed metrics, epochStart/busyUntil its fleet-time span,
	// epochMult the chaos slowdown it runs under (1 when healthy).
	running    []*attempt
	epochRun   *metrics.Run
	epochStart sim.Time
	busyUntil  sim.Time
	epochMult  float64

	// Resilience state: Healthy with health 1.0 and no schedule in a
	// chaos-free fleet.
	state      machState
	stateUntil sim.Time
	downSince  sim.Time
	sched      *chaos.Schedule
	health     float64

	stats metrics.MachineStats
}

// Result is one fleet run's output.
type Result struct {
	// Summary is the serializable digest (the `itssim fleet -format
	// json` document).
	Summary metrics.FleetSummary
	// Epochs holds every epoch's full run metrics in start order.
	Epochs []*metrics.Run
}

// Run executes the fleet to completion.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Routing, cfg.Machines, len(cfg.Tenants))
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: &cfg, router: router}
	f.machines = make([]*machineState, cfg.Machines)
	for i := range f.machines {
		f.machines[i] = &machineState{id: i, health: healthInitialScore, stateUntil: never, epochMult: 1}
		f.machines[i].stats.ID = i
	}
	f.loads = make([]Load, cfg.Machines)
	f.tAccs = make([]tenantAcc, len(cfg.Tenants))
	f.trackers = make([]*workload.QuantileTracker, len(cfg.Tenants))
	for ti, t := range cfg.Tenants {
		// Validate bounds each scale alone; their product must still
		// give a profile (specFor builds one per request).
		if _, err := workload.ProfileFor(t.Bench, t.scale(cfg.Scale)); err != nil {
			return nil, fmt.Errorf("cluster: tenant %s: %w", t.Name, err)
		}
		if t.Priority > f.maxPrio {
			f.maxPrio = t.Priority
		}
		if t.Hedge {
			f.trackers[ti] = workload.NewQuantileTracker(
				workload.DefaultQuantileWindow, workload.DefaultQuantileMinSamples)
		}
	}
	f.chaosSchedules()
	reqs := f.cfg.buildRequests()

	arrIdx := 0
	for f.resolved < len(reqs) {
		// Earliest pending instant per event class: epoch completions,
		// machine-state transitions (chaos windows / timed state ends),
		// lifecycle timers (timeouts, retries, hedges), arrivals. At one
		// instant the classes process in that priority order — machines
		// free up and change state before requests are routed. In a
		// chaos-free, deadline-free fleet tx and tt are always never and
		// the loop degenerates to the historical completions/arrivals
		// alternation exactly.
		tc, tx, tt, ta := never, f.nextChaos(), never, never
		if t, ok := f.timers.NextEventTime(); ok {
			tt = t
		}
		for _, m := range f.machines {
			if m.running != nil && m.busyUntil < tc {
				tc = m.busyUntil
			}
		}
		if arrIdx < len(reqs) {
			ta = reqs[arrIdx].arrival
		}
		now := tc
		if tx < now {
			now = tx
		}
		if tt < now {
			now = tt
		}
		if ta < now {
			now = ta
		}
		if now == never {
			// Unreachable: requests still unresolved yet nothing is
			// pending — every queued request would have started an epoch
			// below.
			return nil, fmt.Errorf("cluster: stalled with %d requests unresolved", len(reqs)-f.resolved)
		}
		switch {
		case tc == now:
			// Completions first, in machine-id order.
			for _, m := range f.machines {
				if m.running != nil && m.busyUntil == now {
					f.finishEpoch(m)
				}
			}
		case tx == now:
			f.stepChaos(now)
		case tt == now:
			f.timers.AdvanceTo(now)
		default:
			for arrIdx < len(reqs) && reqs[arrIdx].arrival == ta {
				r := reqs[arrIdx]
				arrIdx++
				if f.want(obs.EvRequestArrive) {
					f.emit(obs.Event{Time: r.arrival, Type: obs.EvRequestArrive, PID: -1,
						Value: int64(r.id), Cause: cfg.Tenants[r.tenant].Name})
				}
				if !f.admit(r) {
					continue
				}
				f.dispatch(r, false, now)
				f.armHedge(r, now)
			}
		}
		// Re-place parked work once possible, then start epochs on idle
		// eligible machines with queued work, in id order.
		f.dispatchParked(now)
		for _, m := range f.machines {
			if m.running == nil && len(m.queue) > 0 && m.eligible() {
				if err := f.startEpoch(m, now); err != nil {
					return nil, err
				}
			}
		}
	}

	return f.result(reqs), nil
}

// fleet is the in-flight coordinator state of one Run.
type fleet struct {
	cfg      *Config
	router   Router
	machines []*machineState
	epochs   []*metrics.Run
	loads    []Load
	// mach runs every epoch of every fleet machine: epochs execute
	// eagerly, one at a time, and each Reset starts with empty caches, so
	// one machine's caches serve the whole fleet.
	mach smp.Machine

	// Resilience state (see resilience.go).
	chaosCfg chaos.Config // effective (defaulted) chaos knobs
	timers   sim.Engine   // lifecycle timers (*timer handlers)
	parked   []*attempt
	trackers []*workload.QuantileTracker
	tAccs    []tenantAcc
	maxPrio  int
	resolved int
}

func (f *fleet) want(t obs.Type) bool { return f.cfg.Tracer.Wants(t) }
func (f *fleet) emit(ev obs.Event)    { f.cfg.Tracer.Emit(ev) }

// startEpoch pops up to Slots requests from m's queue and runs them as one
// smp batch on the fleet's one machine. The run executes eagerly (its
// metrics and trace are produced here), but in fleet time the machine stays
// busy until the epoch's makespan elapses; completions are applied then by
// finishEpoch.
func (f *fleet) startEpoch(m *machineState, now sim.Time) error {
	n := len(m.queue)
	if s := f.cfg.slots(); n > s {
		n = s
	}
	batch := m.queue[:n:n]
	m.queue = m.queue[n:]

	specs := make([]machine.ProcessSpec, n)
	counts := make([]int, len(f.cfg.Tenants))
	dataIntensive := 0
	for i, a := range batch {
		a.running = true
		spec, prof := f.cfg.specFor(a.req.tenant, a.req.seq)
		specs[i] = spec
		counts[a.req.tenant]++
		if prof.Class == workload.DataIntensive {
			dataIntensive++
		}
	}
	f.router.Observe(m.id, counts)

	name := fmt.Sprintf("m%d/e%d", m.id, m.stats.Epochs)
	if err := f.mach.Reset(f.cfg.machineConfig(dataIntensive, m.id), policy.Factory(f.cfg.Policy, f.cfg.ITS), name, specs); err != nil {
		return fmt.Errorf("cluster: epoch %s: %w", name, err)
	}
	f.mach.Instrument(f.cfg.Tracer, f.cfg.GaugeInterval)
	run, err := f.mach.Run()
	if err != nil {
		return fmt.Errorf("cluster: epoch %s: %w", name, err)
	}

	m.running = batch
	m.epochRun = run
	m.epochStart = now
	m.epochMult = f.currentMult(m)
	m.busyUntil = now + scaleTime(run.Makespan, m.epochMult)
	m.stats.Epochs++
	m.stats.Requests += uint64(n)
	f.epochs = append(f.epochs, run)
	return nil
}

// finishEpoch applies an eagerly-executed epoch's results at its fleet
// completion time. The first attempt to complete resolves its request;
// cancelled attempts (timed out, or losers of a hedge race) are wasted
// machine work and resolve nothing. A Draining machine whose epoch just
// finished goes Down.
func (f *fleet) finishEpoch(m *machineState) {
	run := m.epochRun
	for i, a := range m.running {
		a.running = false
		a.finished = true
		r := a.req
		if a.cancelled || r.resolved {
			continue
		}
		p := run.Procs[i]
		r.completion = m.epochStart + scaleTime(p.FinishTime, m.epochMult)
		r.syncWait = p.StorageWait
		r.done = p.Finished
		r.machine = m.id
		r.hedgeWin = a.hedge
		if a.hedge {
			f.tAccs[r.tenant].hedgeWins++
		}
		f.resolve(r, a)
		if tr := f.trackers[r.tenant]; tr != nil && r.done {
			tr.Observe(r.completion - r.arrival)
		}
		if f.want(obs.EvRequestDone) {
			f.emit(obs.Event{Time: r.completion, Type: obs.EvRequestDone, PID: -1,
				Core: m.id, Value: int64(r.id), Dur: r.completion - r.arrival,
				Cause: f.cfg.Tenants[r.tenant].Name})
		}
	}
	m.stats.BusyNs += int64(m.busyUntil - m.epochStart)
	m.stats.WaitingNs += int64(run.TotalIdle())
	m.stats.StolenNs += int64(run.TotalStolen())
	m.stats.MajorFaults += run.TotalMajorFaults()
	m.stats.DemotedWaits += run.TotalDemotions()
	m.health = healthDecay*m.health + (1-healthDecay)*(1/m.epochMult)
	m.running, m.epochRun = nil, nil
	if m.state == stateDraining {
		f.goDown(m, m.busyUntil, "flap")
	}
	m.epochMult = 1
}

// result assembles the fleet summary from the completed requests.
func (f *fleet) result(reqs []*request) *Result {
	cfg := f.cfg
	sum := metrics.FleetSummary{
		Policy:   cfg.Policy.String(),
		Routing:  f.router.Name(),
		Machines: cfg.Machines,
		Slots:    cfg.slots(),
	}

	type acc struct {
		latency  *metrics.Histogram
		syncWait *metrics.Histogram
		met      uint64
		ts       metrics.TenantStats
	}
	accs := make([]acc, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		accs[i] = acc{
			latency:  metrics.NewWideLatencyHistogram(),
			syncWait: metrics.NewWideLatencyHistogram(),
			ts: metrics.TenantStats{
				Name:       t.Name,
				Bench:      t.Bench,
				SLONs:      int64(t.SLO),
				DeadlineNs: int64(t.Deadline),
				TimedOut:   f.tAccs[i].timedOut,
				Retries:    f.tAccs[i].retries,
				Hedges:     f.tAccs[i].hedges,
				HedgeWins:  f.tAccs[i].hedgeWins,
				Shed:       f.tAccs[i].shed,
				Failed:     f.tAccs[i].failed,
			},
		}
	}

	var makespan sim.Time
	for _, r := range reqs {
		a := &accs[r.tenant]
		a.ts.Requests++
		sum.Requests++
		if !r.done {
			continue
		}
		a.ts.Completed++
		sum.Completed++
		lat := r.completion - r.arrival
		a.latency.Observe(lat)
		a.syncWait.Observe(r.syncWait)
		slo := cfg.Tenants[r.tenant].SLO
		if slo > 0 && lat <= slo {
			a.met++
		}
		if r.completion > makespan {
			makespan = r.completion
		}
	}
	sum.MakespanNs = int64(makespan)

	for i := range accs {
		a := &accs[i]
		a.ts.Latency = a.latency.Snapshot()
		a.ts.SyncWait = a.syncWait.Snapshot()
		if a.ts.SLONs > 0 && a.ts.Completed > 0 {
			a.ts.SLOAttainment = float64(a.met) / float64(a.ts.Completed)
		}
		sum.Tenants = append(sum.Tenants, a.ts)
	}

	var inj metrics.InjectionStats
	injected := false
	for _, run := range f.epochs {
		if run.Injection == nil {
			continue
		}
		injected = true
		inj.TailSpikes += run.Injection.TailSpikes
		inj.ChannelStalls += run.Injection.ChannelStalls
		inj.DMAFailures += run.Injection.DMAFailures
		inj.DMARetries += run.Injection.DMARetries
	}
	if injected {
		sum.Injection = &inj
	}

	for _, m := range f.machines {
		if m.state == stateDown && sum.MakespanNs > int64(m.downSince) {
			// Still out of service when the run ends: charge the
			// remaining downtime inside the fleet makespan.
			m.stats.DownNs += sum.MakespanNs - int64(m.downSince)
		}
		m.stats.IdleNs = sum.MakespanNs - m.stats.BusyNs - m.stats.DownNs
		if m.stats.IdleNs < 0 {
			// The last epoch's makespan can outrun the final request
			// completion (trailing scheduler idle inside the epoch).
			m.stats.IdleNs = 0
		}
		sum.PerMachine = append(sum.PerMachine, m.stats)
	}

	if cfg.resilienceActive() {
		cs := &metrics.ChaosStats{}
		for _, m := range f.machines {
			cs.Crashes += m.stats.Crashes
			cs.Flaps += m.stats.Flaps
			cs.Brownouts += m.stats.Brownouts
			cs.Rehomed += m.stats.Rehomed
		}
		for _, a := range f.tAccs {
			cs.Timeouts += a.timedOut
			cs.Retries += a.retries
			cs.Hedges += a.hedges
			cs.HedgeWins += a.hedgeWins
			cs.Shed += a.shed
			cs.Failed += a.failed
		}
		sum.Chaos = cs
	}

	return &Result{Summary: sum, Epochs: f.epochs}
}
