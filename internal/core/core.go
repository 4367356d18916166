// Package core orchestrates the paper's experiments: it instantiates
// process batches, runs them through the simulated machine under each
// I/O-mode policy, and post-processes the metrics into the normalized
// figures of the evaluation (§4.2).
//
// This is the layer the public itsim package re-exports; examples and the
// benchmark harness drive everything through it.
package core

import (
	"fmt"

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

// Options configure an experiment run.
type Options struct {
	// Scale multiplies workload footprints and trace lengths (1.0 = the
	// full-size experiment; tests use much smaller values). The zero
	// value selects 1.0; a scale workload.ProfileFor refuses is an error
	// from the run functions.
	Scale float64
	// Cores selects the simulated core count (the -cores flag). 0 defers
	// to Machine (or the paper's single core); values above 1 add per-core
	// schedulers and work stealing. Invalid counts surface as errors from
	// the run functions.
	Cores int
	// Machine overrides the platform configuration; nil selects
	// machine.DefaultConfig().
	Machine *machine.Config
	// ITS tunes the ITS policy used by RunBatch/RunGrid (ablations);
	// the zero value selects the paper defaults.
	ITS policy.ITSConfig
	// Fault configures deterministic device fault injection on every run
	// started through this Options value; the zero value injects
	// nothing. Composes with Machine: a non-nil Machine config's own
	// Fault field wins when this one is zero.
	Fault fault.Config
	// SpinBudget bounds synchronous fault waits (0 = unbounded, the
	// historical behaviour): waits predicted to exceed it demote to
	// async context switches. Same precedence as Fault.
	SpinBudget sim.Time
	// Tracer receives the simulation event stream of every run started
	// through this Options value (nil = tracing off). Multi-run
	// experiments interleave their runs into the same sink, separated by
	// RunBegin events.
	Tracer *obs.Tracer
	// GaugeInterval enables periodic virtual-time gauge sampling through
	// Tracer at the given interval (0 = off).
	GaugeInterval sim.Time
}

func (o Options) scale() float64 {
	if o.Scale == 0 {
		return 1.0
	}
	return o.Scale
}

// SliceRange and DRAMRatioFor are exec.SliceRange and exec.DRAMRatioFor,
// kept under their old names for the benchmark harness.
var (
	SliceRange   = exec.SliceRange
	DRAMRatioFor = exec.DRAMRatioFor
)

func (o Options) machineConfig(b workload.Batch) machine.Config {
	cfg := machine.DefaultConfig()
	if o.Machine != nil {
		cfg = *o.Machine
	} else {
		cfg.MinSlice, cfg.MaxSlice = exec.SliceRange(o.scale())
		cfg.DRAMRatio = exec.DRAMRatioFor(b.DataIntensive)
	}
	if o.Cores != 0 {
		cfg.Cores = o.Cores
	}
	if o.Fault.Enabled() {
		cfg.Fault = o.Fault
	}
	if o.SpinBudget > 0 {
		cfg.SpinBudget = o.SpinBudget
	}
	return cfg
}

// specsFor builds the machine process specs for a batch, or returns
// workload.ProfileFor's error for a scale it refuses.
func specsFor(b workload.Batch, scale float64) ([]machine.ProcessSpec, error) {
	specs := make([]machine.ProcessSpec, len(b.Members))
	for i, name := range b.Members {
		p, err := workload.ProfileFor(name, scale)
		if err != nil {
			return nil, err
		}
		g := workload.New(p)
		specs[i] = machine.ProcessSpec{
			Name:     g.Name(),
			Gen:      g,
			Priority: b.Priorities[i],
			BaseVA:   workload.BaseVA,
		}
	}
	return specs, nil
}

// runMachine builds the machine for cfg through internal/smp (Cores=1 is the
// paper's single-core platform), runs the specs on it and returns the
// metrics. Invalid configurations come back as errors from smp.New.
func runMachine(cfg machine.Config, newPolicy func() policy.Policy, name string, specs []machine.ProcessSpec, opts Options) (*metrics.Run, error) {
	m, err := smp.New(cfg, newPolicy, name, specs)
	if err != nil {
		return nil, err
	}
	m.Instrument(opts.Tracer, opts.GaugeInterval)
	return m.Run()
}

// policyName names the policy newPolicy builds, for error messages.
func policyName(newPolicy func() policy.Policy) string {
	if newPolicy != nil {
		if p := newPolicy(); p != nil {
			return p.Name()
		}
	}
	return "?"
}

// RunBatch executes one batch under one policy kind. The ITS kind honours
// opts.ITS.
func RunBatch(b workload.Batch, kind policy.Kind, opts Options) (*metrics.Run, error) {
	return RunBatchWithPolicyFactory(b, policy.Factory(kind, opts.ITS), opts)
}

// RunBatchWithPolicyFactory executes one batch under a custom policy; the
// factory must return a fresh instance per call (policies are stateful, and
// multi-core runs instantiate one per core).
func RunBatchWithPolicyFactory(b workload.Batch, newPolicy func() policy.Policy, opts Options) (*metrics.Run, error) {
	specs, err := specsFor(b, opts.scale())
	var run *metrics.Run
	if err == nil {
		run, err = runMachine(opts.machineConfig(b), newPolicy, b.Name, specs, opts)
	}
	if err != nil {
		return run, fmt.Errorf("core: batch %s under %s: %w", b.Name, policyName(newPolicy), err)
	}
	return run, nil
}

// RunBatchWithPolicy executes one batch under a custom policy instance
// (ablations pass tailored ITS configurations here). Because a single
// stateful instance cannot be shared across cores, multi-core options
// return an error — use RunBatchWithPolicyFactory there.
func RunBatchWithPolicy(b workload.Batch, pol policy.Policy, opts Options) (*metrics.Run, error) {
	if cores := opts.machineConfig(b).Cores; cores > 1 {
		return nil, fmt.Errorf("core: batch %s under %s: one policy instance cannot run on %d cores; each core needs its own",
			b.Name, pol.Name(), cores)
	}
	return RunBatchWithPolicyFactory(b, func() policy.Policy { return pol }, opts)
}

// RunSpecs executes an ad-hoc set of process specs (custom traces, custom
// priorities) under the policy newPolicy builds, one fresh instance per
// core, as RunBatchWithPolicyFactory does. The batch-dependent defaults use
// dataIntensive as the contention hint (see exec.DRAMRatioFor).
func RunSpecs(name string, specs []machine.ProcessSpec, newPolicy func() policy.Policy, dataIntensive int, opts Options) (*metrics.Run, error) {
	cfg := opts.machineConfig(workload.Batch{DataIntensive: dataIntensive})
	run, err := runMachine(cfg, newPolicy, name, specs, opts)
	if err != nil {
		return run, fmt.Errorf("core: custom run %s under %s: %w", name, policyName(newPolicy), err)
	}
	return run, nil
}

// GridResult holds one batch's runs across all policies.
type GridResult struct {
	Batch workload.Batch
	// Runs is indexed by policy kind.
	Runs map[policy.Kind]*metrics.Run
}

// RunGrid executes every batch × every policy — the full Figure 4/5 grid.
// The batch×policy cells run host-parallel (each is an independent
// simulation); the assembled grid is identical to a serial sweep.
func RunGrid(opts Options) ([]GridResult, error) {
	batches := workload.Batches()
	kinds := policy.Kinds()
	runs := make([]*metrics.Run, len(batches)*len(kinds))
	err := opts.runJobs(len(runs), func(i int) error {
		var err error
		runs[i], err = RunBatch(batches[i/len(kinds)], kinds[i%len(kinds)], opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]GridResult, 0, len(batches))
	for bi, b := range batches {
		gr := GridResult{Batch: b, Runs: make(map[policy.Kind]*metrics.Run)}
		for ki, k := range kinds {
			gr.Runs[k] = runs[bi*len(kinds)+ki]
		}
		out = append(out, gr)
	}
	return out, nil
}

// Metric extracts a scalar from a run for normalization.
type Metric func(*metrics.Run) float64

// Standard figure metrics.
var (
	// MetricIdle is Fig 4a's total CPU idle time (seconds).
	MetricIdle Metric = func(r *metrics.Run) float64 { return r.TotalIdle().Seconds() }
	// MetricPageFaults is Fig 4b's major-fault count.
	MetricPageFaults Metric = func(r *metrics.Run) float64 { return float64(r.TotalMajorFaults()) }
	// MetricCacheMisses is Fig 4c's LLC-miss count.
	MetricCacheMisses Metric = func(r *metrics.Run) float64 { return float64(r.TotalLLCMisses()) }
	// MetricTopFinish is Fig 5a's top-50 % average finish time (seconds).
	MetricTopFinish Metric = func(r *metrics.Run) float64 { return r.TopHalfAvgFinish().Seconds() }
	// MetricBottomFinish is Fig 5b's bottom-50 % average finish time.
	MetricBottomFinish Metric = func(r *metrics.Run) float64 { return r.BottomHalfAvgFinish().Seconds() }
)

// Normalized returns metric(run)/metric(baseline run of refKind) for every
// policy in gr, i.e. the paper's "normalized to the ITS design" y-axis when
// refKind is policy.ITS.
func (gr GridResult) Normalized(metric Metric, refKind policy.Kind) map[policy.Kind]float64 {
	out := make(map[policy.Kind]float64, len(gr.Runs))
	ref, ok := gr.Runs[refKind]
	if !ok {
		return out
	}
	den := metric(ref)
	for k, r := range gr.Runs {
		if den == 0 {
			out[k] = 0
			continue
		}
		out[k] = metric(r) / den
	}
	return out
}

// CrossoverPoint is one row of the huge-I/O crossover experiment: at a
// given swap-in cluster size, how synchronous busy-waiting compares with
// asynchronous context switching.
type CrossoverPoint struct {
	// ClusterPages is the swap-in granularity (1 = 4 KiB base pages).
	ClusterPages int
	// IOBytes is the corresponding transfer unit.
	IOBytes uint64
	// SyncIdle / AsyncIdle are total CPU idle (waiting) times.
	SyncIdle  sim.Time
	AsyncIdle sim.Time
	// SyncMakespan / AsyncMakespan are batch completion times.
	SyncMakespan  sim.Time
	AsyncMakespan sim.Time
	// Winner is "Sync" or "Async" by makespan.
	Winner string
}

// RunCrossover reproduces the paper's §1 motivation that synchronous I/O is
// promising only while the transfer unit stays microsecond-scale: it sweeps
// the swap-in cluster size (4 KiB base pages up to huge-page-style units)
// on the 1_Data_Intensive batch and reports where asynchronous mode wins
// back. clusterSizes defaults to {1, 2, 4, 8, 16, 32, 64} pages.
func RunCrossover(opts Options, clusterSizes []int) ([]CrossoverPoint, error) {
	if len(clusterSizes) == 0 {
		clusterSizes = []int{1, 2, 4, 8, 16, 32, 64}
	}
	b, err := workload.BatchByName("1_Data_Intensive")
	if err != nil {
		return nil, err
	}
	var out []CrossoverPoint
	for _, cl := range clusterSizes {
		cfg := opts.machineConfig(b)
		cfg.SwapClusterPages = cl
		o := opts
		o.Machine = &cfg
		syncRun, err := RunBatch(b, policy.Sync, o)
		if err != nil {
			return nil, err
		}
		asyncRun, err := RunBatch(b, policy.Async, o)
		if err != nil {
			return nil, err
		}
		pt := CrossoverPoint{
			ClusterPages:  cl,
			IOBytes:       uint64(cl) * 4096,
			SyncIdle:      syncRun.TotalIdle(),
			AsyncIdle:     asyncRun.TotalIdle(),
			SyncMakespan:  syncRun.Makespan,
			AsyncMakespan: asyncRun.Makespan,
			Winner:        "Sync",
		}
		if asyncRun.Makespan < syncRun.Makespan {
			pt.Winner = "Async"
		}
		out = append(out, pt)
	}
	return out, nil
}

// Ablation is one row of the design ablations: a batch run with one ITS
// mechanism or scheduler setting changed from the canonical configuration.
type Ablation struct {
	Batch string
	// Variant names the policy and the changed setting.
	Variant          string
	Idle             sim.Time
	MajorFaults      uint64
	LLCMisses        uint64
	TopFinish        sim.Time
	PrefetchAccuracy float64
}

// RunAblations attributes ITS's gains to its mechanisms (§3.3–§3.4) and
// checks how much the scheduler model matters. Every variant starts from
// opts.machineConfig, so only the ablated setting differs from the
// canonical run:
//
//   - 2_Data_Intensive: ITS prefetch degree n ∈ {2, 4, 8, 16}; pre-execution
//     off; prefetch off; the pre-execute cache at 25, 50 and 75 % of the LLC
//     (n = 8 and 50 % are both the default ITS run);
//   - 3_Data_Intensive: ITS with and without the self-sacrificing thread;
//   - 1_Data_Intensive: Sync and ITS under NICE round-robin and under
//     strict SCHED_RR priority dispatch.
func RunAblations(opts Options) ([]Ablation, error) {
	type variant struct {
		batch, name string
		kind        policy.Kind
		set         func(*Options, *machine.Config)
	}
	var vs []variant
	its := func(batch, name string, set func(*Options, *machine.Config)) {
		vs = append(vs, variant{batch, name, policy.ITS, set})
	}
	for _, n := range []int{2, 4, 8, 16} {
		its("2_Data_Intensive", fmt.Sprintf("ITS n=%d", n), func(o *Options, _ *machine.Config) { o.ITS.PrefetchDegree = n })
	}
	its("2_Data_Intensive", "ITS no pre-execution", func(o *Options, _ *machine.Config) { o.ITS.DisablePreExecute = true })
	its("2_Data_Intensive", "ITS no prefetch", func(o *Options, _ *machine.Config) { o.ITS.DisablePrefetch = true })
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		its("2_Data_Intensive", fmt.Sprintf("ITS pre-exec cache %.0f%%", 100*frac), func(_ *Options, c *machine.Config) { c.PreExecCacheFraction = frac })
	}
	its("3_Data_Intensive", "ITS", func(*Options, *machine.Config) {})
	its("3_Data_Intensive", "ITS no self-sacrificing", func(o *Options, _ *machine.Config) { o.ITS.DisableSelfSacrificing = true })
	for _, strict := range []bool{false, true} {
		sched := "NICE RR"
		if strict {
			sched = "strict priority"
		}
		for _, k := range []policy.Kind{policy.Sync, policy.ITS} {
			vs = append(vs, variant{"1_Data_Intensive", k.String() + " " + sched, k,
				func(_ *Options, c *machine.Config) { c.StrictPriority = strict }})
		}
	}
	out := make([]Ablation, len(vs))
	err := opts.runJobs(len(vs), func(i int) error {
		v := vs[i]
		b, err := workload.BatchByName(v.batch)
		if err != nil {
			return err
		}
		o, cfg := opts, opts.machineConfig(b)
		v.set(&o, &cfg)
		o.Machine = &cfg
		run, err := RunBatch(b, v.kind, o)
		if err != nil {
			return err
		}
		out[i] = Ablation{
			Batch:            b.Name,
			Variant:          v.name,
			Idle:             run.TotalIdle(),
			MajorFaults:      run.TotalMajorFaults(),
			LLCMisses:        run.TotalLLCMisses(),
			TopFinish:        run.TopHalfAvgFinish(),
			PrefetchAccuracy: run.PrefetchAccuracy(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SpinPoint is one row of the hybrid-polling comparison: a Spin_Block
// policy with the given busy-wait threshold versus the paper's policies.
type SpinPoint struct {
	// Threshold is the spin budget before falling back to blocking;
	// 0 marks the reference rows (pure Sync ≈ ∞ threshold, pure Async ≈ 0).
	Threshold sim.Time
	Name      string
	Idle      sim.Time
	Makespan  sim.Time
	// IdleVsITS is TotalIdle normalized to the same batch's ITS run.
	IdleVsITS float64
}

// RunSpinSweep compares ITS against the kernel-style hybrid-polling
// baseline (spin up to a threshold, then block) that ships in today's
// kernels: the natural question the paper leaves open. Sweeps the given
// thresholds (defaults 1, 3, 7, 15 µs) on the 2_Data_Intensive batch and
// reports idle time normalized to ITS.
func RunSpinSweep(opts Options, thresholds []sim.Time) ([]SpinPoint, error) {
	if len(thresholds) == 0 {
		thresholds = []sim.Time{
			1 * sim.Microsecond,
			3 * sim.Microsecond,
			7 * sim.Microsecond,
			15 * sim.Microsecond,
		}
	}
	b, err := workload.BatchByName("2_Data_Intensive")
	if err != nil {
		return nil, err
	}
	// Jobs 0..len(thresholds)-1 are the Spin_Block points, then Sync,
	// Async, ITS; all are independent simulations and run host-parallel.
	refs := []policy.Kind{policy.Sync, policy.Async, policy.ITS}
	runs := make([]*metrics.Run, len(thresholds)+len(refs))
	err = opts.runJobs(len(runs), func(i int) error {
		var err error
		if i < len(thresholds) {
			th := thresholds[i]
			runs[i], err = RunBatchWithPolicyFactory(b, func() policy.Policy {
				return policy.NewSpinBlock(th)
			}, opts)
		} else {
			runs[i], err = RunBatch(b, refs[i-len(thresholds)], opts)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	itsRun := runs[len(runs)-1]
	ref := itsRun.TotalIdle().Seconds()
	mk := func(name string, th sim.Time, run *metrics.Run) SpinPoint {
		pt := SpinPoint{Threshold: th, Name: name, Idle: run.TotalIdle(), Makespan: run.Makespan}
		if ref > 0 {
			pt.IdleVsITS = run.TotalIdle().Seconds() / ref
		}
		return pt
	}
	var out []SpinPoint
	for i, th := range thresholds {
		out = append(out, mk(runs[i].Policy, th, runs[i]))
	}
	for i, k := range []policy.Kind{policy.Sync, policy.Async} {
		out = append(out, mk(k.String(), 0, runs[len(thresholds)+i]))
	}
	out = append(out, mk("ITS", 0, itsRun))
	return out, nil
}

// SensitivityResult summarizes one policy's normalized idle time across
// several random priority draws of the same batch.
type SensitivityResult struct {
	Policy policy.Kind
	// Min/Mean/Max of idle time normalized to the same draw's ITS run.
	Min, Mean, Max float64
}

// RunSensitivity re-runs one batch under every policy for draws different
// random priority assignments (seeded deterministically), normalizing each
// draw's idle times to its own ITS run. The paper assigns priorities
// "randomly" without disclosing the draw; this experiment shows the Figure 4a
// ordering is a property of the design, not of the pinned draw in
// workload.Batches.
func RunSensitivity(batchName string, draws int, opts Options) ([]SensitivityResult, error) {
	if draws <= 0 {
		draws = 5
	}
	base, err := workload.BatchByName(batchName)
	if err != nil {
		return nil, err
	}
	// Precompute each draw's batch serially (the priority shuffle is
	// seeded per draw), then run the draws × kinds cells host-parallel.
	kinds := policy.Kinds()
	drawBatches := make([]workload.Batch, draws)
	for d := range drawBatches {
		b := base
		b.Priorities = workload.AssignPriorities(len(b.Members), uint64(0x5EED+d))
		drawBatches[d] = b
	}
	runs := make([]*metrics.Run, draws*len(kinds))
	err = opts.runJobs(len(runs), func(i int) error {
		var err error
		runs[i], err = RunBatch(drawBatches[i/len(kinds)], kinds[i%len(kinds)], opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	acc := make(map[policy.Kind][]float64)
	for d := 0; d < draws; d++ {
		cell := func(k policy.Kind) *metrics.Run {
			for ki, kk := range kinds {
				if kk == k {
					return runs[d*len(kinds)+ki]
				}
			}
			return nil
		}
		ref := cell(policy.ITS).TotalIdle().Seconds()
		for _, k := range kinds {
			if ref > 0 {
				acc[k] = append(acc[k], cell(k).TotalIdle().Seconds()/ref)
			}
		}
	}
	var out []SensitivityResult
	for _, k := range policy.Kinds() {
		vals := acc[k]
		if len(vals) == 0 {
			continue
		}
		r := SensitivityResult{Policy: k, Min: vals[0], Max: vals[0]}
		sum := 0.0
		for _, v := range vals {
			sum += v
			if v < r.Min {
				r.Min = v
			}
			if v > r.Max {
				r.Max = v
			}
		}
		r.Mean = sum / float64(len(vals))
		out = append(out, r)
	}
	return out, nil
}

// ObservationPoint is one bar of the §2.2 motivation experiment.
type ObservationPoint struct {
	Processes int
	IdleTime  sim.Time
	Makespan  sim.Time
	// IdleFraction is idle time over total CPU time.
	IdleFraction float64
}

// ObservationMembers are the five processes of the §2.2 experiment: "Wrf,
// Blender, page rank, random walk algorithm, and also the single shortest
// path algorithm".
func ObservationMembers() []string {
	return []string{
		workload.Wrf,
		workload.Blender,
		workload.PageRank,
		workload.RandomWalk,
		workload.Graph500,
	}
}

// RunObservation reproduces the §2.2 experiment: run the first n of the
// observation members under plain Sync for n = 2..5, reporting CPU idle
// time per point (the paper normalizes to the 2-process run).
func RunObservation(opts Options) ([]ObservationPoint, error) {
	members := ObservationMembers()
	var out []ObservationPoint
	for n := 2; n <= len(members); n++ {
		b := workload.Batch{
			Name:       fmt.Sprintf("observation_%d", n),
			Members:    members[:n],
			Priorities: make([]int, n),
		}
		for i := range b.Priorities {
			b.Priorities[i] = i + 1
		}
		run, err := RunBatch(b, policy.Sync, opts)
		if err != nil {
			return nil, err
		}
		idle := run.TotalIdle()
		pt := ObservationPoint{
			Processes: n,
			IdleTime:  idle,
			Makespan:  run.Makespan,
		}
		if run.Makespan > 0 {
			pt.IdleFraction = float64(idle) / float64(run.Makespan)
		}
		out = append(out, pt)
	}
	return out, nil
}
