package exec

import (
	"errors"

	"itsim/internal/bus"
	"itsim/internal/cache"
	"itsim/internal/cpu"
	"itsim/internal/fault"
	"itsim/internal/kernel"
	"itsim/internal/mem"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/preexec"
	"itsim/internal/sched"
	"itsim/internal/sim"
	"itsim/internal/storage"
	"itsim/internal/trace"
)

// Shared is the state every core of one simulated platform contends on: the
// kernel (page tables, swap path, DRAM), the inclusive LLC, the ULL device
// behind its PCIe link (owned by the kernel), the process table and the
// run-level metrics. The SMP model (internal/smp) drives one Shared with
// N Cores; N=1 is the paper's single-core platform.
type Shared struct {
	// Cfg is the platform configuration after defaulting.
	Cfg Config
	// Krn is the shared mini kernel.
	Krn *kernel.Kernel
	// LLC is the shared last-level cache (minus pre-execute carve-outs).
	LLC *cache.Cache
	// Run collects the run-level metrics.
	Run *metrics.Run
	// Procs is the process table, indexed by pid. Each process's Pending
	// list records its in-flight swap-ins.
	Procs []*Proc
	// Cores are the simulated CPUs sharing this state.
	Cores []*Core

	// Trc is the user tracer (nil = tracing off). Want caches, per event
	// type, whether the auditor or the tracer would accept it, so
	// untraced emission sites cost one array load and branch.
	Trc  *obs.Tracer
	Want [obs.NumTypes]bool
	// GaugeEvery is the virtual-time gauge sampling interval (0 = off).
	GaugeEvery sim.Time

	// pioFree is the free list of recycled PendingIO structs. Completions
	// are frequent (one per asynchronous swap-in) and short-lived, so
	// pooling them keeps the hot loop allocation-free.
	pioFree *PendingIO
}

// getPendingIO pops a recycled completion struct (or allocates the first
// time). All fields the caller does not set are zeroed here.
func (s *Shared) getPendingIO() *PendingIO {
	pio := s.pioFree
	if pio == nil {
		return &PendingIO{}
	}
	s.pioFree = pio.next
	*pio = PendingIO{}
	return pio
}

// releasePendingIO returns a completion struct to the free list. Callers
// must not retain pio afterwards; its event handle is owned by the engine
// (fired) or already cancelled (steal path).
func (s *Shared) releasePendingIO(pio *PendingIO) {
	pio.next = s.pioFree
	s.pioFree = pio
}

// NewShared builds the shared platform and one Core per policy instance
// (len(pols) = core count; policies are stateful, so each core needs its
// own). Processes are assigned to cores round-robin (pid % N — with N=1,
// all to the single core), and every core gets a metrics.Core ledger.
//
// prev is the platform of the batch before (nil = none). Its LLC, and its
// core i's L1 and pre-execute cache, are reset and reused by core i of the
// new platform when their geometry matches; everything else is built
// fresh. The result is indistinguishable from a build without prev, which
// must not be used afterwards. On error prev is untouched.
func NewShared(prev *Shared, cfg Config, pols []policy.Policy, batchName string, specs []ProcessSpec) (*Shared, error) {
	if len(pols) == 0 {
		return nil, errors.New("exec: no policy instances")
	}
	for _, pol := range pols {
		if pol == nil {
			return nil, errors.New("exec: nil policy instance")
		}
	}
	if len(specs) == 0 {
		return nil, errors.New("exec: no processes")
	}
	if cfg.DRAMRatio <= 0 {
		cfg.DRAMRatio = 0.75
	}
	n := len(pols)

	// Partition the LLC by ways (as real cache partitioning does — the
	// set count stays constant and power-of-two for both halves): every
	// core gets its own pre-execute carve-out, the remainder is the
	// shared LLC.
	llcSize, llcWays := cfg.LLCSize, cfg.LLCWays
	pxSize, pxWays := 0, 0
	if pols[0].Kind().NeedsPreExecCache() {
		per, share, err := cfg.PreExecPartition(n)
		if err != nil {
			return nil, err
		}
		sets := cfg.LLCSize / (cfg.LineBytes * cfg.LLCWays)
		pxWays = per
		pxSize = per * sets * cfg.LineBytes
		llcSize = cfg.LLCSize - pxSize*n
		llcWays = share
	}

	var pages uint64
	for _, s := range specs {
		pages += trace.FootprintPages(s.Gen.FootprintBytes())
	}
	frames := int(cfg.DRAMRatio * float64(pages))
	if frames < 64 {
		frames = 64
	}

	// The caches prev offers for reuse (none without prev).
	var oldLLC *cache.Cache
	var oldCores []*Core
	if prev != nil {
		oldLLC, oldCores = prev.LLC, prev.Cores
	}

	link := bus.New(cfg.BusLanes, cfg.LaneBandwidth)
	dev := storage.New(cfg.Device, link)
	if cfg.Fault.Enabled() {
		dev.SetInjector(fault.New(cfg.Fault))
	}
	s := &Shared{
		Cfg: cfg,
		Krn: kernel.New(mem.NewDRAM(frames, mem.ReplaceClock), dev),
		LLC: reuseCache(oldLLC, cache.Config{SizeBytes: llcSize, LineBytes: cfg.LineBytes, Ways: llcWays}),
		Run: metrics.NewRun(pols[0].Name(), batchName),
	}

	// Pin every core's slice mapping to the batch-global priority range
	// so a migrated process keeps the slice the single-queue machine
	// would give it. (With one core the observed range equals the global
	// range, so pinning changes nothing.)
	lo, hi := specs[0].Priority, specs[0].Priority
	for _, sp := range specs[1:] {
		if sp.Priority < lo {
			lo = sp.Priority
		}
		if sp.Priority > hi {
			hi = sp.Priority
		}
	}

	for i := 0; i < n; i++ {
		var oldL1 *cache.Cache
		var oldPX *cpu.PreExecCache
		if i < len(oldCores) {
			oldL1 = oldCores[i].L1
			if oldCores[i].PX != nil {
				oldPX = oldCores[i].PX.PXC
			}
		}
		c := &Core{
			S:         s,
			ID:        i,
			Eng:       &sim.Engine{},
			Sch:       sched.New(),
			L1:        reuseCache(oldL1, cache.Config{SizeBytes: cfg.L1Size, LineBytes: cfg.LineBytes, Ways: cfg.L1Ways}),
			Pol:       pols[i],
			Aud:       obs.NewAuditor(),
			Met:       s.Run.AddCore(i),
			lastPXPid: -1,
		}
		if pxSize > 0 {
			c.PX = preexec.New(reusePreExecCache(oldPX, cache.Config{
				SizeBytes: pxSize, LineBytes: cfg.LineBytes, Ways: pxWays,
			}))
		}
		if cfg.TLBEntries > 0 {
			c.TLB = cache.New(cache.Config{SizeBytes: cfg.TLBEntries, LineBytes: 1, Ways: cfg.TLBEntries})
		}
		if cfg.StrictPriority {
			c.Sch.SetStrictPriority(true)
		}
		if minS, maxS, ok := cfg.sliceRange(); ok {
			c.Sch.SetSliceRange(minS, maxS)
		}
		c.Sch.SetPriorityRange(lo, hi)
		c.Sch.SetObserver(c.observe)
		s.Cores = append(s.Cores, c)
	}

	for pid, sp := range specs {
		sp.Gen.Reset()
		p := &Proc{PID: pid, Spec: sp, Met: s.Run.AddProcess(pid, sp.Name, sp.Priority), Owner: pid % n}
		p.Met.Tenant = sp.Tenant
		p.look = make([]trace.Record, Lookahead)
		s.Procs = append(s.Procs, p)
		p.KP = s.Krn.AddProcess(pid, sp.Name, sp.Priority)
		s.Krn.MapRegion(pid, sp.BaseVA, sp.Gen.FootprintBytes())
		s.Cores[p.Owner].Sch.Add(pid, sp.Priority)
	}
	s.warmStart(cfg.WarmFraction, frames)
	s.RefreshWant()
	return s, nil
}

// reuseCache returns old, reset, when it has geometry cfg, and a new cache
// otherwise.
func reuseCache(old *cache.Cache, cfg cache.Config) *cache.Cache {
	if old == nil || old.Config() != cfg {
		return cache.New(cfg)
	}
	old.Reset()
	return old
}

// reusePreExecCache is reuseCache for a pre-execute cache.
func reusePreExecCache(old *cpu.PreExecCache, cfg cache.Config) *cpu.PreExecCache {
	if old == nil || old.Config() != cfg {
		return cpu.NewPreExecCache(cfg)
	}
	old.Reset()
	return old
}

// warmSetter is implemented by workloads that can enumerate their working
// set (hottest pages first) for warm-starting DRAM.
type warmSetter interface {
	WarmPages(maxPages int) []uint64
}

// warmStart pre-loads each process's hottest pages into DRAM, fair-share,
// in pid order, so the run begins in the steady multiprogrammed state the
// paper measures.
func (s *Shared) warmStart(fraction float64, frames int) {
	if fraction < 0 {
		return
	}
	if fraction == 0 {
		fraction = 0.85
	}
	if fraction > 1 {
		fraction = 1
	}
	budget := int(fraction * float64(frames) / float64(len(s.Procs)))
	if budget <= 0 {
		return
	}
	for _, p := range s.Procs {
		ws, ok := p.Spec.Gen.(warmSetter)
		if !ok {
			continue
		}
		as := p.KP.AS
		for _, va := range ws.WarmPages(budget) {
			if pte, found := as.Lookup(va); found && pte.Present() {
				continue
			}
			id, free := s.Krn.DRAM().Allocate(p.PID, va, false)
			if !free {
				return // DRAM full: warm-start ends here
			}
			as.MakePresent(va, uint64(id))
		}
	}
}

// Instrument attaches an event tracer and, when gaugeEvery > 0, a periodic
// virtual-time gauge sampler. Call before the run starts. A nil tracer
// leaves tracing off (the per-core accounting auditors still run — they are
// part of the platform, not of tracing).
func (s *Shared) Instrument(trc *obs.Tracer, gaugeEvery sim.Time) {
	s.Trc = trc
	s.GaugeEvery = gaugeEvery
	s.Krn.SetTracer(trc)
	s.RefreshWant()
}

// RefreshWant recomputes the per-type emission mask from the auditor's
// static interests and the current tracer's filter.
func (s *Shared) RefreshWant() {
	aud := s.Cores[0].Aud
	for i := range s.Want {
		s.Want[i] = aud.Wants(obs.Type(i)) || s.Trc.Wants(obs.Type(i))
	}
}

// CollectInjection copies the fault injector's end-of-run counters (plus
// the kernel's retry count) into the run record. With no injector
// attached it leaves Run.Injection nil, so fault-free summaries keep the
// historical byte layout. The run loop calls it after the last event.
func (s *Shared) CollectInjection() {
	inj := s.Krn.Device().Injector()
	if inj == nil {
		return
	}
	st := inj.Stats()
	s.Run.Injection = &metrics.InjectionStats{
		TailSpikes:    st.TailSpikes,
		ChannelStalls: st.ChannelStalls,
		DMAFailures:   st.DMAFailures,
		DMARetries:    s.Krn.Stats().DMARetries,
	}
}

// Alive is the number of unfinished processes across every core.
func (s *Shared) Alive() int {
	n := 0
	for _, c := range s.Cores {
		n += c.Sch.Alive()
	}
	return n
}

// llcFill installs a line in the shared LLC; the inclusive hierarchy
// back-invalidates the displaced victim from every core's L1 (a line
// evicted from the LLC cannot stay live in an inner cache). This is the
// single implementation of the inclusivity invariant at any core count.
func (s *Shared) llcFill(key uint64) {
	if victim, ok := s.LLC.Fill(key); ok {
		addr := s.LLC.AddrOf(victim)
		for _, c := range s.Cores {
			c.L1.Invalidate(addr)
		}
	}
}

// ScheduleGauges starts the periodic gauge sampler (on core 0's clock) when
// enabled. Each tick emits counter events for the run-introspection
// quantities the aggregate metrics cannot show over time: ready-queue
// depth, outstanding swap-ins, LLC and pre-execute-cache occupancy, and
// busy storage channels.
func (s *Shared) ScheduleGauges() {
	if s.GaugeEvery <= 0 || !s.Want[obs.EvGauge] {
		return
	}
	c0 := s.Cores[0]
	var tick func(now sim.Time)
	tick = func(now sim.Time) {
		if s.Alive() == 0 {
			// The run is over: a pending tick draining after EvRunEnd must
			// not emit — replay attribution requires RunEnd to be the last
			// event of its run.
			return
		}
		s.emitGauges(now)
		c0.Eng.Schedule(now+s.GaugeEvery, tick)
	}
	c0.Eng.Schedule(c0.Eng.Now()+s.GaugeEvery, tick)
}

func (s *Shared) emitGauges(now sim.Time) {
	c0 := s.Cores[0]
	g := func(name string, v int64) {
		c0.Emit(obs.Event{Time: now, Type: obs.EvGauge, PID: -1, Cause: name, Value: v})
	}
	ready := 0
	for _, c := range s.Cores {
		ready += c.Sch.Runnable()
	}
	g("ready_queue_depth", int64(ready))
	swapins := 0
	for _, p := range s.Procs {
		swapins += len(p.Pending)
	}
	g("outstanding_swapins", int64(swapins))
	g("llc_lines", int64(s.LLC.ValidLines()))
	if c0.PX != nil {
		px := 0
		for _, c := range s.Cores {
			px += c.PX.PXC.ValidLines()
		}
		g("preexec_cache_lines", int64(px))
	}
	g("busy_storage_channels", int64(s.Krn.Device().BusyChannelsAt(now)))
}
