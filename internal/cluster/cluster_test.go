package cluster

import (
	"encoding/json"
	"runtime"
	"testing"

	"itsim/internal/chaos"
	"itsim/internal/fault"
	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/workload"
)

// burstConfig is a 1-machine fleet whose every request arrives at t = 0
// and fits one epoch — the degenerate shape that must reduce exactly to a
// bare smp batch.
func burstConfig(kind policy.Kind, routing string) Config {
	return Config{
		Machines: 1,
		Slots:    8,
		Policy:   kind,
		Routing:  routing,
		Scale:    0.5, // × DefaultTenantScale = 0.01 effective
		Tenants: []TenantSpec{
			{Name: "alpha", Bench: workload.Caffe, Requests: 2, Priority: 3, SLO: 50 * sim.Millisecond},
			{Name: "beta", Bench: workload.PageRank, Requests: 2, Priority: 1},
		},
	}
}

// TestOneMachineMatchesSMP is the fleet ⇔ smp anchor: a 1-machine,
// single-epoch fleet must produce an epoch run byte-identical to running
// the same specs directly on internal/smp, for every I/O policy and every
// routing policy (routing is irrelevant with one machine and must not
// perturb the outcome).
func TestOneMachineMatchesSMP(t *testing.T) {
	for _, kind := range policy.Kinds() {
		for _, routing := range RouterNames() {
			cfg := burstConfig(kind, routing)
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%v/%s: fleet run: %v", kind, routing, err)
			}
			if len(res.Epochs) != 1 {
				t.Fatalf("%v/%s: got %d epochs, want 1", kind, routing, len(res.Epochs))
			}

			// The same requests, built through the same helpers, run
			// directly on the smp machine.
			reqs := cfg.buildRequests()
			specs := make([]machine.ProcessSpec, len(reqs))
			dataIntensive := 0
			for i, r := range reqs {
				spec, prof := cfg.specFor(r.tenant, r.seq)
				specs[i] = spec
				if prof.Class == workload.DataIntensive {
					dataIntensive++
				}
			}
			mm, err := smp.New(cfg.machineConfig(dataIntensive, 0), policy.Factory(cfg.Policy, cfg.ITS), "m0/e0", specs)
			if err != nil {
				t.Fatalf("%v/%s: smp.New: %v", kind, routing, err)
			}
			bare, err := mm.Run()
			if err != nil {
				t.Fatalf("%v/%s: smp run: %v", kind, routing, err)
			}

			got := marshalSummary(t, res.Epochs[0].Summary())
			want := marshalSummary(t, bare.Summary())
			if got != want {
				t.Errorf("%v/%s: 1-machine fleet epoch differs from bare smp run\nfleet: %s\nsmp:   %s",
					kind, routing, got, want)
			}
		}
	}
}

func marshalSummary(t *testing.T, s metrics.Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatalf("marshal summary: %v", err)
	}
	return string(b)
}

func faultyFleetConfig(seed uint64) Config {
	return Config{
		Machines: 3,
		Slots:    2,
		Policy:   policy.ITS,
		Routing:  LeastLoaded,
		Seed:     seed,
		Scale:    0.5,
		Fault: fault.Config{
			Seed:     42,
			TailProb: 0.05, TailMult: 4,
			StallProb:   0.02,
			DMAFailProb: 0.02,
		},
		Tenants: []TenantSpec{
			{Name: "alpha", Bench: workload.Caffe, Requests: 4, Priority: 3,
				Rate: 200_000, Pattern: workload.Diurnal, Period: 2 * sim.Millisecond, Amp: 0.6,
				SLO: 100 * sim.Millisecond},
			{Name: "beta", Bench: workload.RandomWalk, Requests: 3, Priority: 1,
				Rate: 150_000, Pattern: workload.Bursty, Period: sim.Millisecond, Amp: 0.8},
		},
	}
}

// TestFleetDeterminism: same seed ⇒ byte-identical per-tenant summaries,
// even with open-loop arrivals and fault injection; a different fleet seed
// must change the outcome.
func TestFleetDeterminism(t *testing.T) {
	runJSON := func(seed uint64) string {
		res, err := Run(faultyFleetConfig(seed))
		if err != nil {
			t.Fatalf("fleet run (seed %d): %v", seed, err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatalf("marshal fleet summary: %v", err)
		}
		return string(b)
	}
	a, b := runJSON(7), runJSON(7)
	if a != b {
		t.Errorf("identically-seeded fleet runs differ:\n%s\n%s", a, b)
	}
	if c := runJSON(8); c == a {
		t.Errorf("fleet seed change produced an identical summary")
	}
	if res, err := Run(faultyFleetConfig(7)); err != nil {
		t.Fatal(err)
	} else if res.Summary.Injection == nil {
		t.Errorf("faulty fleet run reported no injection stats")
	}
}

// TestFleetCompletesAllRequests checks conservation: every submitted
// request completes exactly once, on every routing policy.
func TestFleetCompletesAllRequests(t *testing.T) {
	for _, routing := range RouterNames() {
		cfg := faultyFleetConfig(1)
		cfg.Fault = fault.Config{}
		cfg.Routing = routing
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		s := res.Summary
		if s.Requests != 7 || s.Completed != 7 {
			t.Errorf("%s: requests/completed = %d/%d, want 7/7", routing, s.Requests, s.Completed)
		}
		if s.Routing != routing {
			t.Errorf("%s: summary routing = %q", routing, s.Routing)
		}
		var perMachine uint64
		for _, m := range s.PerMachine {
			perMachine += m.Requests
		}
		if perMachine != 7 {
			t.Errorf("%s: per-machine request counts sum to %d, want 7", routing, perMachine)
		}
		for i, ts := range s.Tenants {
			want := uint64(cfg.Tenants[i].Requests)
			if ts.Requests != want || ts.Completed != want {
				t.Errorf("%s: tenant %s requests/completed = %d/%d, want %d",
					routing, ts.Name, ts.Requests, ts.Completed, want)
			}
			if ts.Latency.Count != want {
				t.Errorf("%s: tenant %s latency histogram has %d samples, want %d",
					routing, ts.Name, ts.Latency.Count, want)
			}
			if ts.SLONs > 0 && (ts.SLOAttainment < 0 || ts.SLOAttainment > 1) {
				t.Errorf("%s: tenant %s SLO attainment %v outside [0,1]",
					routing, ts.Name, ts.SLOAttainment)
			}
		}
		if s.MakespanNs <= 0 {
			t.Errorf("%s: non-positive makespan %d", routing, s.MakespanNs)
		}
	}
}

func TestRoundRobinRouter(t *testing.T) {
	r, err := NewRouter(RoundRobin, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{{ID: 0, Eligible: true}, {ID: 1, Eligible: true}, {ID: 2, Eligible: true}}
	for i, want := range []int{0, 1, 2, 0, 1} {
		if got := r.Pick(0, loads); got != want {
			t.Errorf("pick %d = %d, want %d", i, got, want)
		}
	}
}

func TestLeastLoadedRouter(t *testing.T) {
	r, err := NewRouter(LeastLoaded, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{ID: 0, Queued: 2, Running: 1, Eligible: true},
		{ID: 1, Queued: 0, Running: 2, Eligible: true},
		{ID: 2, Queued: 1, Running: 1, Eligible: true},
	}
	if got := r.Pick(0, loads); got != 1 {
		t.Errorf("pick = %d, want 1 (lowest in-flight)", got)
	}
	loads[1].Queued = 1 // now 0 and 2 tie at... 0:3, 1:3, 2:2
	if got := r.Pick(0, loads); got != 2 {
		t.Errorf("pick = %d, want 2", got)
	}
	loads[2].Queued = 2 // all tie at 3: lowest id wins
	if got := r.Pick(0, loads); got != 0 {
		t.Errorf("tie pick = %d, want 0", got)
	}
}

// TestLeastLoadedTieBreakOrder pins the tie-break contract explicitly:
// among equally-loaded eligible machines the lowest machine id wins,
// whatever order ties appear in — health-score integration must not
// perturb this base case.
func TestLeastLoadedTieBreakOrder(t *testing.T) {
	r, err := NewRouter(LeastLoaded, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	all := []Load{
		{ID: 0, Queued: 1, Eligible: true},
		{ID: 1, Queued: 1, Eligible: true},
		{ID: 2, Queued: 1, Eligible: true},
		{ID: 3, Queued: 1, Eligible: true},
	}
	if got := r.Pick(0, all); got != 0 {
		t.Errorf("all-tie pick = %d, want 0 (lowest id)", got)
	}
	// Partial tie at the minimum: 1 and 3 tie below 0 and 2.
	partial := []Load{
		{ID: 0, Queued: 2, Eligible: true},
		{ID: 1, Queued: 1, Eligible: true},
		{ID: 2, Queued: 2, Eligible: true},
		{ID: 3, Queued: 1, Eligible: true},
	}
	if got := r.Pick(0, partial); got != 1 {
		t.Errorf("partial-tie pick = %d, want 1 (lowest id at the minimum)", got)
	}
}

// TestLocalityColdFallback pins the locality router's cold path: with no
// warmth recorded anywhere the router must defer to least-loaded placement
// (including its lowest-id tie-break), not pick machine 0 by accident.
func TestLocalityColdFallback(t *testing.T) {
	r, err := NewRouter(PageLocality, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{ID: 0, Queued: 4, Eligible: true},
		{ID: 1, Queued: 2, Eligible: true},
		{ID: 2, Queued: 1, Eligible: true},
	}
	if got := r.Pick(0, loads); got != 2 {
		t.Errorf("cold pick = %d, want 2 (least loaded)", got)
	}
	loads[2].Queued = 2 // 1 and 2 tie: lowest id
	if got := r.Pick(0, loads); got != 1 {
		t.Errorf("cold tie pick = %d, want 1", got)
	}
}

// TestRoutersSkipIneligible: every router must route around Down/Draining
// machines.
func TestRoutersSkipIneligible(t *testing.T) {
	for _, name := range RouterNames() {
		r, err := NewRouter(name, 3, 1)
		if err != nil {
			t.Fatal(err)
		}
		loads := []Load{
			{ID: 0, Eligible: false, Health: 1},
			{ID: 1, Queued: 5, Eligible: true, Health: 1},
			{ID: 2, Queued: 9, Eligible: false, Health: 1},
		}
		for i := 0; i < 4; i++ {
			if got := r.Pick(0, loads); got != 1 {
				t.Errorf("%s: pick %d = %d, want 1 (only eligible machine)", name, i, got)
			}
		}
	}
}

// TestHealthRouter: the health-aware router prefers healthy machines,
// degenerates to least-loaded when health is uniform, and breaks ties by
// lowest id.
func TestHealthRouter(t *testing.T) {
	r, err := NewRouter(HealthAware, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	uniform := []Load{
		{ID: 0, Queued: 2, Health: 1, Eligible: true},
		{ID: 1, Queued: 1, Health: 1, Eligible: true},
		{ID: 2, Queued: 2, Health: 1, Eligible: true},
	}
	if got := r.Pick(0, uniform); got != 1 {
		t.Errorf("uniform-health pick = %d, want 1 (least loaded)", got)
	}
	sick := []Load{
		{ID: 0, Queued: 1, Health: 0.2, Eligible: true},
		{ID: 1, Queued: 2, Health: 1, Eligible: true},
		{ID: 2, Queued: 4, Health: 1, Eligible: true},
	}
	// 0 scores 0.1, 1 scores 1/3, 2 scores 0.2: load is forgiven before
	// sickness is.
	if got := r.Pick(0, sick); got != 1 {
		t.Errorf("sick pick = %d, want 1", got)
	}
	tie := []Load{
		{ID: 0, Queued: 1, Health: 0.5, Eligible: true},
		{ID: 1, Queued: 1, Health: 0.5, Eligible: true},
	}
	if got := r.Pick(0, tie); got != 0 {
		t.Errorf("tie pick = %d, want 0 (lowest id)", got)
	}
}

func TestLocalityRouter(t *testing.T) {
	r, err := NewRouter(PageLocality, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	loads := []Load{
		{ID: 0, Queued: 5, Eligible: true},
		{ID: 1, Eligible: true},
		{ID: 2, Eligible: true},
	}
	// Cold start: fall back to least-loaded (machine 1, lowest id among
	// the in-flight-0 tie).
	if got := r.Pick(0, loads); got != 1 {
		t.Errorf("cold pick = %d, want 1", got)
	}
	// Machine 2 served tenant 0; tenant 0 should now stick to it even
	// though machine 1 is equally idle.
	r.Observe(2, []int{3, 0})
	if got := r.Pick(0, loads); got != 2 {
		t.Errorf("warm pick = %d, want 2", got)
	}
	// Tenant 1 has no warmth anywhere: load decides.
	if got := r.Pick(1, loads); got != 1 {
		t.Errorf("cold-tenant pick = %d, want 1", got)
	}
	// Warmth decays: after enough epochs without tenant 0, machine 2
	// cools and a freshly-warmed machine wins.
	r.Observe(0, []int{8, 0})
	if got := r.Pick(0, loads); got != 0 {
		t.Errorf("rewarmed pick = %d, want 0", got)
	}
}

func TestNewRouterUnknown(t *testing.T) {
	if _, err := NewRouter("weighted-random", 2, 1); err == nil {
		t.Fatal("unknown routing policy accepted")
	}
}

func TestParseTenantSpec(t *testing.T) {
	t.Run("full", func(t *testing.T) {
		ts, err := ParseTenantSpec(
			"name=web,bench=pagerank,rate=5000,requests=12,prio=5,scale=0.05,pattern=diurnal,period=4ms,amp=0.7,slo=2ms,seed=99;" +
				"bench=caffe,req=3")
		if err != nil {
			t.Fatal(err)
		}
		if len(ts) != 2 {
			t.Fatalf("got %d tenants, want 2", len(ts))
		}
		web := ts[0]
		if web.Name != "web" || web.Bench != workload.PageRank || web.Rate != 5000 ||
			web.Requests != 12 || web.Priority != 5 || web.Scale != 0.05 ||
			web.Pattern != workload.Diurnal || web.Period != 4*sim.Millisecond ||
			web.Amp != 0.7 || web.SLO != 2*sim.Millisecond || web.Seed != 99 {
			t.Errorf("tenant 0 parsed as %+v", web)
		}
		def := ts[1]
		if def.Name != "t1" || def.Bench != workload.Caffe || def.Requests != 3 ||
			def.Priority != 1 || def.Scale != DefaultTenantScale || def.Pattern != workload.Steady {
			t.Errorf("tenant 1 defaults parsed as %+v", def)
		}
	})

	bad := map[string]string{
		"empty":          "",
		"malformed":      "name",
		"unknown-key":    "colour=blue",
		"unknown-bench":  "bench=quake",
		"zero-requests":  "requests=0",
		"huge-requests":  "requests=2000000",
		"bad-prio":       "prio=0",
		"bad-amp":        "amp=1.5",
		"nan-rate":       "rate=NaN",
		"bad-period":     "period=fast",
		"duplicate-name": "name=a;name=a",
		"delimiter-name": "name=a=b", // '=' inside the value
	}
	for label, spec := range bad {
		if _, err := ParseTenantSpec(spec); err == nil {
			t.Errorf("%s: spec %q accepted", label, spec)
		}
	}
}

// TestSpecParseAllocs is the spec parsers' allocation gate, on the specs
// of the fleet-chaos benchmark workload: a fleet's set-up time includes
// these parses. The shared scanner cuts entries off the spec in place, so
// chaos.ParseSpec and fault.ParseSpec allocate nothing, and
// ParseTenantSpec allocates only the default names, the result slice and
// the duplicate-name set.
func TestSpecParseAllocs(t *testing.T) {
	const (
		tenants = "name=web,bench=pagerank,rate=5e3,req=1200,prio=3,slo=20ms,deadline=6ms,retries=2,hedge=true;" +
			"name=train,bench=caffe,rate=3e3,req=720,prio=2,pattern=diurnal,slo=60ms,deadline=20ms,retries=1;" +
			"name=batch,bench=randomwalk,rate=2e3,req=480,prio=1,pattern=bursty"
		chaosSpec = "seed=5,crashr=20,crashd=250us,warm=6ms,warmx=8,brownr=20,brownx=4,flapr=5"
		faultSpec = "seed=42,tailp=0.01,tailx=8,stallp=0.001,dmap=0.005"
	)
	for _, tc := range []struct {
		name  string
		max   float64
		parse func() error
	}{
		{"tenant", 6, func() error { _, err := ParseTenantSpec(tenants); return err }},
		{"chaos", 0, func() error { _, err := chaos.ParseSpec(chaosSpec); return err }},
		{"fault", 0, func() error { _, err := fault.ParseSpec(faultSpec); return err }},
	} {
		if err := tc.parse(); err != nil {
			t.Fatalf("%s spec: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(100, func() { _ = tc.parse() })
		t.Logf("%s spec: %v allocations per parse", tc.name, got)
		if got > tc.max {
			t.Errorf("%s spec: %v allocations per parse, want <= %v", tc.name, got, tc.max)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	good := burstConfig(policy.Sync, RoundRobin)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"no-machines":   func(c *Config) { c.Machines = 0 },
		"many-machines": func(c *Config) { c.Machines = MaxMachines + 1 },
		"neg-slots":     func(c *Config) { c.Slots = -1 },
		"no-tenants":    func(c *Config) { c.Tenants = nil },
		"dup-tenants":   func(c *Config) { c.Tenants = append(c.Tenants, c.Tenants[0]) },
		"bad-routing":   func(c *Config) { c.Routing = "mystery" },
		"neg-scale":     func(c *Config) { c.Scale = -1 },
		"bad-fault":     func(c *Config) { c.Fault.TailProb = 2 },
		"neg-spin":      func(c *Config) { c.SpinBudget = -1 },
	}
	for label, mutate := range cases {
		cfg := burstConfig(policy.Sync, RoundRobin)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", label)
		}
	}
}

// TestFleetAllocPerEpoch guards the fleet's allocation against configured
// cache capacity. One machine runs every epoch and Reset reuses its caches,
// so an epoch allocates what its requests need rather than a new 8 MB LLC's
// tag arrays. Doubling an ITS fleet's requests may add at most 256 KiB of
// heap allocation per extra epoch; a new machine per epoch allocated about
// 1.2 MiB.
func TestFleetAllocPerEpoch(t *testing.T) {
	const requests = 12
	measure := func(n int) (bytes uint64, epochs int) {
		cfg := Config{
			Machines: 2,
			Slots:    2,
			Policy:   policy.ITS,
			Routing:  LeastLoaded,
			Scale:    0.5,
			Tenants: []TenantSpec{
				{Name: "alpha", Bench: workload.PageRank, Requests: n, Priority: 2, Rate: 50_000},
				{Name: "beta", Bench: workload.Caffe, Requests: n, Priority: 1, Rate: 50_000},
			},
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc, len(res.Epochs)
	}
	measure(requests) // settle one-time lazy allocations
	small, e1 := measure(requests)
	large, e2 := measure(2 * requests)
	if e2 <= e1 {
		t.Fatalf("%d requests ran %d epochs, %d ran %d: no extra epochs to measure", 2*requests, e2, requests, e1)
	}
	perEpoch := (large - small) / uint64(e2-e1)
	t.Logf("%d → %d epochs: %d KiB per extra epoch", e1, e2, perEpoch>>10)
	if perEpoch > 256<<10 {
		t.Errorf("marginal allocation %d KiB per epoch, want <= 256 KiB", perEpoch>>10)
	}
}
