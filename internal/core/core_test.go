package core

import (
	"fmt"
	"regexp"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// tinyOpts runs experiments at 1% scale so the whole grid stays fast.
func tinyOpts() Options {
	cfg := machine.DefaultConfig()
	cfg.MinSlice, cfg.MaxSlice = SliceRange(0.01)
	cfg.MaxSimTime = 30 * sim.Second
	return Options{Scale: 0.01, Machine: &cfg}
}

func TestSliceRange(t *testing.T) {
	min1, max1 := SliceRange(1.0)
	if min1 <= 0 || max1 <= min1 {
		t.Fatalf("SliceRange(1) = %v, %v", min1, max1)
	}
	minS, maxS := SliceRange(0.01)
	if minS < 20*sim.Microsecond {
		t.Fatalf("min slice %v below floor", minS)
	}
	if maxS < 10*minS {
		t.Fatalf("max slice %v not well above min %v", maxS, minS)
	}
	if maxS >= max1 {
		t.Fatal("slices did not scale down")
	}
}

func TestDRAMRatioFor(t *testing.T) {
	if DRAMRatioFor(0) != DRAMRatioFor(1) {
		t.Fatal("low-DI batches should share a ratio")
	}
	if DRAMRatioFor(2) <= DRAMRatioFor(0) {
		t.Fatal("DI-heavy batches need the larger ratio")
	}
}

func TestRunBatchProducesCompleteMetrics(t *testing.T) {
	b := workload.Batches()[0]
	run, err := RunBatch(b, policy.Sync, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "Sync" || run.Batch != b.Name {
		t.Fatalf("labels: %q %q", run.Policy, run.Batch)
	}
	if len(run.Procs) != 6 {
		t.Fatalf("%d procs", len(run.Procs))
	}
	for _, p := range run.Procs {
		if !p.Finished || p.Instructions == 0 {
			t.Fatalf("proc %s incomplete: %+v", p.Name, p)
		}
	}
	if run.Makespan <= 0 || run.TotalIdle() <= 0 {
		t.Fatal("degenerate run metrics")
	}
}

func TestRunBatchHonoursITSConfig(t *testing.T) {
	b := workload.Batches()[0]
	opts := tinyOpts()
	opts.ITS = policy.ITSConfig{DisablePrefetch: true, DisablePreExecute: true, DisableSelfSacrificing: true}
	run, err := RunBatch(b, policy.ITS, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range run.Procs {
		if p.PrefetchIssued != 0 {
			t.Fatal("DisablePrefetch ignored by RunBatch")
		}
	}
}

func TestRunBatchWithPolicyCustom(t *testing.T) {
	b := workload.Batches()[0]
	pol := policy.NewITS(policy.ITSConfig{PrefetchDegree: 2})
	run, err := RunBatchWithPolicy(b, pol, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "ITS" {
		t.Fatalf("policy label %q", run.Policy)
	}
}

func TestNormalized(t *testing.T) {
	gr := GridResult{Runs: map[policy.Kind]*metrics.Run{}}
	mk := func(idleMs int64) *metrics.Run {
		r := metrics.NewRun("x", "b")
		p := r.AddProcess(0, "w", 1)
		p.MemStall = sim.Time(idleMs) * sim.Millisecond
		return r
	}
	gr.Runs[policy.ITS] = mk(10)
	gr.Runs[policy.Sync] = mk(15)
	gr.Runs[policy.Async] = mk(30)
	n := gr.Normalized(MetricIdle, policy.ITS)
	if n[policy.ITS] != 1.0 {
		t.Fatalf("ITS normalized to %v", n[policy.ITS])
	}
	if n[policy.Sync] != 1.5 || n[policy.Async] != 3.0 {
		t.Fatalf("normalized = %v", n)
	}
}

func TestNormalizedMissingRef(t *testing.T) {
	gr := GridResult{Runs: map[policy.Kind]*metrics.Run{}}
	if got := gr.Normalized(MetricIdle, policy.ITS); len(got) != 0 {
		t.Fatalf("missing ref produced %v", got)
	}
}

func TestObservationMembersMatchPaper(t *testing.T) {
	m := ObservationMembers()
	want := []string{workload.Wrf, workload.Blender, workload.PageRank, workload.RandomWalk, workload.Graph500}
	if len(m) != len(want) {
		t.Fatalf("members = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("members = %v, want %v", m, want)
		}
	}
}

func TestRunObservationShape(t *testing.T) {
	pts, err := RunObservation(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 { // 2..5 processes
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if pt.Processes != i+2 {
			t.Fatalf("point %d has %d processes", i, pt.Processes)
		}
		if pt.IdleTime <= 0 || pt.Makespan <= 0 || pt.IdleFraction <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
	}
	// The paper's observation: idle time grows with process count.
	for i := 1; i < len(pts); i++ {
		if pts[i].IdleTime <= pts[i-1].IdleTime {
			t.Fatalf("idle time not increasing: %v then %v",
				pts[i-1].IdleTime, pts[i].IdleTime)
		}
	}
	// "more than 22% of CPU idle time" with multiprogramming.
	if pts[len(pts)-1].IdleFraction < 0.22 {
		t.Fatalf("idle fraction %v below the paper's 22%% floor", pts[len(pts)-1].IdleFraction)
	}
}

// TestGridHeadline is the repository's miniature end-to-end check of the
// paper's headline claims: on every batch, ITS has the lowest total idle
// time, and Async the highest.
func TestGridHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("grid run in -short mode")
	}
	grid, err := RunGrid(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 4 {
		t.Fatalf("%d grid rows", len(grid))
	}
	for _, gr := range grid {
		n := gr.Normalized(MetricIdle, policy.ITS)
		for _, k := range policy.Kinds() {
			if k == policy.ITS {
				continue
			}
			if n[k] < 1.0 {
				t.Errorf("%s: %v idle %.3f× below ITS", gr.Batch.Name, k, n[k])
			}
		}
		if n[policy.Async] < n[policy.Sync] {
			t.Errorf("%s: Async (%.2f) below Sync (%.2f)", gr.Batch.Name, n[policy.Async], n[policy.Sync])
		}
	}
}

func TestRunCrossoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("crossover sweep in -short mode")
	}
	pts, err := RunCrossover(tinyOpts(), []int{1, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	// At 4 KiB units the ULL-era premise holds: Sync wins. At 256 KiB
	// units the killer-microsecond logic inverts: Async wins back.
	if pts[0].Winner != "Sync" {
		t.Fatalf("4 KiB unit: winner = %s, want Sync (makespans %v vs %v)",
			pts[0].Winner, pts[0].SyncMakespan, pts[0].AsyncMakespan)
	}
	if pts[1].Winner != "Async" {
		t.Fatalf("256 KiB unit: winner = %s, want Async (makespans %v vs %v)",
			pts[1].Winner, pts[1].SyncMakespan, pts[1].AsyncMakespan)
	}
	if pts[0].IOBytes != 4096 || pts[1].IOBytes != 64*4096 {
		t.Fatalf("IO sizes wrong: %+v", pts)
	}
}

func TestRunSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sensitivity sweep in -short mode")
	}
	res, err := RunSensitivity("1_Data_Intensive", 3, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 5 {
		t.Fatalf("%d policies", len(res))
	}
	for _, r := range res {
		if r.Min > r.Mean || r.Mean > r.Max {
			t.Fatalf("%v: min/mean/max disordered: %+v", r.Policy, r)
		}
		if r.Policy == policy.ITS {
			if r.Min != 1.0 || r.Max != 1.0 {
				t.Fatalf("ITS not normalized to itself: %+v", r)
			}
			continue
		}
		// The design's ordering must hold across every draw: even the
		// best draw leaves every baseline at or above ITS.
		if r.Min < 1.0 {
			t.Fatalf("%v beat ITS on some draw: %+v", r.Policy, r)
		}
	}
	if _, err := RunSensitivity("nope", 2, tinyOpts()); err == nil {
		t.Fatal("unknown batch accepted")
	}
}

func TestRunSpinSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spin sweep in -short mode")
	}
	pts, err := RunSpinSweep(tinyOpts(), []sim.Time{sim.Microsecond, 20 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// 2 thresholds + Sync + Async + ITS.
	if len(pts) != 5 {
		t.Fatalf("%d points", len(pts))
	}
	last := pts[len(pts)-1]
	if last.Name != "ITS" || last.IdleVsITS != 1.0 {
		t.Fatalf("reference row wrong: %+v", last)
	}
	for _, pt := range pts {
		if pt.Idle <= 0 || pt.Makespan <= 0 {
			t.Fatalf("degenerate point %+v", pt)
		}
		// In the ULL regime (3 µs I/O < 7 µs switch) no hybrid threshold
		// beats ITS.
		if pt.Name != "ITS" && pt.IdleVsITS < 1.0 {
			t.Fatalf("%s beat ITS: %+v", pt.Name, pt)
		}
	}
	// A generous threshold behaves like Sync (never blocks).
	var generous, syncIdle sim.Time
	for _, pt := range pts {
		if pt.Threshold == 20*sim.Microsecond {
			generous = pt.Idle
		}
		if pt.Name == "Sync" {
			syncIdle = pt.Idle
		}
	}
	if generous != syncIdle {
		t.Fatalf("generous spin (%v) should equal Sync (%v)", generous, syncIdle)
	}
}

// TestInvalidConfigErrors: a malformed platform configuration comes back as
// an error from the run entry points at every core count, never as a panic
// from deep inside the cache or scheduler constructors.
func TestInvalidConfigErrors(t *testing.T) {
	b := workload.Batches()[0]
	cases := []struct {
		name string
		mut  func(*machine.Config) // nil: run with no processes
		want string
	}{
		{"llc_ways_3", func(c *machine.Config) { c.LLCWays = 3 }, "LLC ways 3"},
		{"l1_ways_0", func(c *machine.Config) { c.L1Ways = 0 }, "L1 ways 0"},
		{"min_slice_above_max", func(c *machine.Config) { c.MinSlice, c.MaxSlice = 2*sim.Millisecond, sim.Millisecond }, "max slice"},
		{"max_slice_below_default_min", func(c *machine.Config) { c.MinSlice, c.MaxSlice = 0, sim.Millisecond }, "max slice"},
		{"no_specs", nil, "no processes"},
	}
	for _, tc := range cases {
		for _, cores := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/cores=%d", tc.name, cores), func(t *testing.T) {
				opts := tinyOpts()
				opts.Machine.Cores = cores
				var err error
				switch {
				case tc.mut == nil:
					_, err = RunSpecs("empty", nil, policy.Factory(policy.Sync, policy.ITSConfig{}), 0, opts)
				default:
					tc.mut(opts.Machine)
					_, err = RunBatch(b, policy.Sync, opts)
				}
				if err == nil || !regexp.MustCompile(tc.want).MatchString(err.Error()) {
					t.Fatalf("got error %v, want one matching %q", err, tc.want)
				}
			})
		}
	}
}
