package itsim_test

import (
	"bytes"
	"strings"
	"testing"

	"itsim"
)

func TestPoliciesRoundTrip(t *testing.T) {
	ks := itsim.Policies()
	if len(ks) != 5 {
		t.Fatalf("%d policies", len(ks))
	}
	for _, k := range ks {
		back, err := itsim.PolicyByName(k.String())
		if err != nil || back != k {
			t.Fatalf("PolicyByName(%q) = %v, %v", k.String(), back, err)
		}
	}
}

func TestBatchesExposed(t *testing.T) {
	bs := itsim.Batches()
	if len(bs) != 4 {
		t.Fatalf("%d batches", len(bs))
	}
	b, err := itsim.BatchByName(bs[2].Name)
	if err != nil || b.Name != bs[2].Name {
		t.Fatalf("BatchByName: %v %v", b, err)
	}
}

func TestWorkloadsExposed(t *testing.T) {
	ws := itsim.Workloads()
	if len(ws) != 9 {
		t.Fatalf("%d workloads", len(ws))
	}
	for _, name := range ws {
		g, err := itsim.NewGenerator(name, 0.01)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Len() == 0 || g.FootprintBytes() == 0 {
			t.Fatalf("%s: degenerate generator", name)
		}
	}
	if _, err := itsim.NewGenerator("bogus", 1); err == nil {
		t.Fatal("bogus workload accepted")
	}
}

func TestRunBatchPublicAPI(t *testing.T) {
	b, err := itsim.BatchByName("No_Data_Intensive")
	if err != nil {
		t.Fatal(err)
	}
	run, err := itsim.RunBatch(b, itsim.ITS, itsim.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if run.Policy != "ITS" || len(run.Procs) != 6 || run.Makespan <= 0 {
		t.Fatalf("run = %+v", run)
	}
}

func TestTraceRoundTripPublicAPI(t *testing.T) {
	g, err := itsim.NewGenerator("xz", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := itsim.WriteTrace(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := itsim.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "xz" || back.Len() != g.Len() {
		t.Fatalf("round trip: %s %d", back.Name(), back.Len())
	}
	st := itsim.AnalyzeTrace(back)
	if st.Records != g.Len() {
		t.Fatalf("stats records %d, want %d", st.Records, g.Len())
	}
}

func TestRunProcessesPublicAPI(t *testing.T) {
	mk := func(name string) itsim.Generator {
		g, err := itsim.NewGenerator(name, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	specs := []itsim.ProcessSpec{
		{Name: "a", Gen: mk("wrf"), Priority: 2, BaseVA: itsim.WorkloadBaseVA},
		{Name: "b", Gen: mk("randomwalk"), Priority: 1, BaseVA: itsim.WorkloadBaseVA},
	}
	run, err := itsim.RunProcesses("custom", specs, itsim.Sync, 1, itsim.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Procs) != 2 || !run.Procs[0].Finished || !run.Procs[1].Finished {
		t.Fatal("custom run incomplete")
	}

	// Every core gets its own policy instance, so a custom mix runs on
	// more than one core too.
	specs = []itsim.ProcessSpec{
		{Name: "a", Gen: mk("wrf"), Priority: 2, BaseVA: itsim.WorkloadBaseVA},
		{Name: "b", Gen: mk("randomwalk"), Priority: 1, BaseVA: itsim.WorkloadBaseVA},
	}
	run, err = itsim.RunProcesses("custom", specs, itsim.ITS, 1, itsim.Options{Scale: 0.01, Cores: 2})
	if err != nil {
		t.Fatalf("Cores: 2: %v", err)
	}
	if len(run.Cores) != 2 {
		t.Fatalf("Cores: 2 run has %d per-core entries, want 2", len(run.Cores))
	}
	if !run.Procs[0].Finished || !run.Procs[1].Finished {
		t.Fatal("two-core custom run incomplete")
	}
}

func TestDefaultMachineConfigMatchesPaper(t *testing.T) {
	cfg := itsim.DefaultMachineConfig()
	if cfg.LLCSize != 8<<20 || cfg.LLCWays != 16 || cfg.LineBytes != 64 {
		t.Fatalf("LLC config %+v diverges from §4.1", cfg)
	}
	if cfg.BusLanes != 4 {
		t.Fatalf("PCIe lanes = %d, want 4", cfg.BusLanes)
	}
}

// TestPaperSetupConstants pins every §4.1 constant the reproduction relies
// on (the DESIGN.md tbl-setup experiment).
func TestPaperSetupConstants(t *testing.T) {
	cfg := itsim.DefaultMachineConfig()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"LLC bytes", int64(cfg.LLCSize), 8 << 20},
		{"LLC ways", int64(cfg.LLCWays), 16},
		{"line bytes", int64(cfg.LineBytes), 64},
		{"PCIe lanes", int64(cfg.BusLanes), 4},
		{"lane bandwidth B/s", cfg.LaneBandwidth, 3_983_000_000},
		{"ULL read ns", int64(cfg.Device.ReadLatency), 3_000},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	// Unscaled SCHED_RR slices are the paper's 5 ms…800 ms.
	min1, max1 := itsim.SliceRange(50) // scale 50 ⇒ past the floor region
	if max1/min1 < 100 {
		t.Errorf("slice ratio %v:%v lost the NICE spread", max1, min1)
	}
}

func TestITSConfigAblationViaPublicAPI(t *testing.T) {
	b, _ := itsim.BatchByName("1_Data_Intensive")
	full, err := itsim.RunBatch(b, itsim.ITS, itsim.Options{Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	bare, err := itsim.RunBatch(b, itsim.ITS, itsim.Options{
		Scale: 0.02,
		ITS:   itsim.ITSConfig{DisablePrefetch: true, DisablePreExecute: true, DisableSelfSacrificing: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.TotalMajorFaults() >= bare.TotalMajorFaults() {
		t.Fatalf("full ITS (%d faults) not better than disabled ITS (%d faults)",
			full.TotalMajorFaults(), bare.TotalMajorFaults())
	}
}

func TestFacadeExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension sweeps in -short mode")
	}
	opts := itsim.Options{Scale: 0.01}
	// Crossover through the facade.
	xo, err := itsim.RunCrossover(opts, []int{1})
	if err != nil || len(xo) != 1 {
		t.Fatalf("RunCrossover: %v %v", xo, err)
	}
	// Spin sweep through the facade.
	sp, err := itsim.RunSpinSweep(opts, []itsim.Time{7000})
	if err != nil || len(sp) != 4 {
		t.Fatalf("RunSpinSweep: %d pts, %v", len(sp), err)
	}
	// Sensitivity through the facade.
	se, err := itsim.RunSensitivity("No_Data_Intensive", 2, opts)
	if err != nil || len(se) != 5 {
		t.Fatalf("RunSensitivity: %d, %v", len(se), err)
	}
	// Custom policy through the facade.
	b, _ := itsim.BatchByName("No_Data_Intensive")
	run, err := itsim.RunBatchCustom(b, itsim.NewSpinBlockPolicy(0), opts)
	if err != nil || run.Makespan <= 0 {
		t.Fatalf("RunBatchCustom: %v %v", run, err)
	}
}

func TestFacadeGraphWorkloads(t *testing.T) {
	g := itsim.NewGraph(256, 4, 1)
	if g.Edges() == 0 || g.FootprintBytes() == 0 {
		t.Fatal("degenerate graph")
	}
	gens := []itsim.Generator{
		itsim.NewRandomWalkTrace(g, 2, 1000, 1),
		itsim.NewPageRankTrace(g, 1000, 2),
		itsim.NewSSSPTrace(g, 1000, 3),
	}
	specs := make([]itsim.ProcessSpec, len(gens))
	for i, gen := range gens {
		st := itsim.AnalyzeTrace(gen)
		if st.Records != 1000 {
			t.Fatalf("%s: %d records", gen.Name(), st.Records)
		}
		specs[i] = itsim.ProcessSpec{Name: gen.Name(), Gen: gen, Priority: i + 1, BaseVA: itsim.GraphHeapBase}
	}
	run, err := itsim.RunProcesses("graphs", specs, itsim.ITS, 3, itsim.Options{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range run.Procs {
		if !p.Finished {
			t.Fatalf("%s did not finish", p.Name)
		}
	}
}

func TestFacadeLackey(t *testing.T) {
	g, err := itsim.ParseLackey(strings.NewReader("I 1000,4\n L 2000,8\n"), "lk")
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d", g.Len())
	}
}
