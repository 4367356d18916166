package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"itsim/internal/chaos"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// chaoticFleetConfig is the reference chaotic fleet: all three chaos axes
// live, deadlines + retries on the high-priority tenant, hedging on the
// low-priority one.
func chaoticFleetConfig(seed uint64, routing string) Config {
	return Config{
		Machines: 3,
		Slots:    2,
		Policy:   policy.ITS,
		Routing:  routing,
		Seed:     seed,
		Scale:    0.5,
		// Runs last tens of virtual milliseconds; rates are events per
		// virtual second per machine, so these land a handful of windows
		// per run without starving epochs of the time to finish.
		Chaos: chaos.Config{
			Seed:      9,
			CrashRate: 40,
			BrownRate: 60,
			FlapRate:  25,
		},
		Tenants: []TenantSpec{
			{Name: "alpha", Bench: workload.Caffe, Requests: 6, Priority: 3,
				Rate: 200_000, Pattern: workload.Diurnal, Period: 2 * sim.Millisecond, Amp: 0.6,
				SLO: 100 * sim.Millisecond, Deadline: 5 * sim.Millisecond, Retries: 2},
			{Name: "beta", Bench: workload.RandomWalk, Requests: 5, Priority: 1,
				Rate: 150_000, Pattern: workload.Bursty, Period: sim.Millisecond, Amp: 0.8,
				Hedge: true},
		},
	}
}

// checkDigest compares the SHA-256 of a fleet's summary JSON or trace with
// a digest recorded while the fleet's timers still ran on their own heap, so
// a change in timer order or timing fails here and not only in bench/'s
// golden.
func checkDigest(t *testing.T, what, data, want string) {
	t.Helper()
	sum := sha256.Sum256([]byte(data))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("fleet %s drifted: sha256 %s, want %s", what, got, want)
	}
}

// TestChaoticFleetDeterminism: same seeds ⇒ byte-identical summaries even
// with crashes, re-homing, timeouts and retries in the loop; changing the
// chaos seed alone must change the outcome.
func TestChaoticFleetDeterminism(t *testing.T) {
	runJSON := func(chaosSeed uint64) string {
		cfg := chaoticFleetConfig(7, HealthAware)
		cfg.Chaos.Seed = chaosSeed
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("chaotic fleet run: %v", err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	a, b := runJSON(9), runJSON(9)
	if a != b {
		t.Errorf("identically-seeded chaotic runs differ:\n%s\n%s", a, b)
	}
	checkDigest(t, "summary", a, "4ce36efe48910369d990673e82166d0267e08c516652ee7e06a140b119ad4e91")
	if c := runJSON(10); c == a {
		t.Errorf("chaos seed change produced an identical summary")
	}
}

// TestZeroChaosByteInert: a chaos config whose rates are all zero must
// produce byte-identical output to no chaos config at all, even with
// non-zero duration/multiplier knobs set — zero-rate axes draw nothing.
func TestZeroChaosByteInert(t *testing.T) {
	runJSON := func(mutate func(*Config)) string {
		cfg := faultyFleetConfig(7)
		mutate(&cfg)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res.Summary)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	base := runJSON(func(*Config) {})
	inert := runJSON(func(c *Config) {
		c.Chaos = chaos.Config{Seed: 123, CrashDown: sim.Millisecond,
			Warm: sim.Millisecond, WarmMult: 3, BrownDur: sim.Millisecond,
			BrownMult: 5, FlapDown: sim.Millisecond}
	})
	if base != inert {
		t.Errorf("zero-rate chaos config perturbed the fleet summary:\n%s\n%s", base, inert)
	}
}

// TestRequestConservationUnderChaos: under any chaos schedule, every
// submitted request resolves exactly once — completed, shed, or failed —
// on every routing policy, and the chaos counters reconcile.
func TestRequestConservationUnderChaos(t *testing.T) {
	for _, routing := range RouterNames() {
		cfg := chaoticFleetConfig(1, routing)
		cfg.ShedDepth = 8
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", routing, err)
		}
		s := res.Summary
		if s.Chaos == nil {
			t.Fatalf("%s: chaotic run reported no chaos stats", routing)
		}
		var shed, failed, completed, submitted uint64
		for _, ts := range s.Tenants {
			submitted += ts.Requests
			completed += ts.Completed
			shed += ts.Shed
			failed += ts.Failed
		}
		if submitted != s.Requests || completed != s.Completed {
			t.Errorf("%s: tenant sums %d/%d disagree with fleet totals %d/%d",
				routing, submitted, completed, s.Requests, s.Completed)
		}
		if completed+shed+failed != submitted {
			t.Errorf("%s: completed %d + shed %d + failed %d != submitted %d",
				routing, completed, shed, failed, submitted)
		}
		if s.Chaos.Shed != shed || s.Chaos.Failed != failed {
			t.Errorf("%s: fleet chaos stats shed/failed %d/%d disagree with tenant sums %d/%d",
				routing, s.Chaos.Shed, s.Chaos.Failed, shed, failed)
		}
		// Machine time must reconcile: busy + idle + down == makespan per
		// machine (idle is derived and clamped at zero only when the last
		// epoch outran the final completion).
		for _, m := range s.PerMachine {
			total := m.BusyNs + m.IdleNs + m.DownNs
			if m.IdleNs > 0 && total != s.MakespanNs {
				t.Errorf("%s: machine %d busy+idle+down = %d, want makespan %d",
					routing, m.ID, total, s.MakespanNs)
			}
		}
	}
}

// TestCrashRehoming: a crash-only schedule must actually hit, re-home
// queued work, and still complete every request (deadlines generous, so
// nothing fails).
func TestCrashRehoming(t *testing.T) {
	cfg := chaoticFleetConfig(3, HealthAware)
	cfg.Chaos = chaos.Config{Seed: 5, CrashRate: 150}
	cfg.Tenants[0].Deadline = 0
	cfg.Tenants[0].Retries = 0
	cfg.Tenants[1].Hedge = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Chaos == nil || s.Chaos.Crashes == 0 {
		t.Fatalf("crash-heavy schedule delivered no crashes: %+v", s.Chaos)
	}
	if s.Chaos.Flaps != 0 || s.Chaos.Brownouts != 0 {
		t.Errorf("crash-only schedule delivered flaps=%d brownouts=%d",
			s.Chaos.Flaps, s.Chaos.Brownouts)
	}
	if s.Completed != s.Requests {
		t.Errorf("completed %d of %d despite no deadlines", s.Completed, s.Requests)
	}
	var down int64
	for _, m := range s.PerMachine {
		down += m.DownNs
	}
	if down == 0 {
		t.Errorf("crashes reported but no machine accumulated downtime")
	}
}

// TestDeadlineExhaustionFails: with a deadline far below the service time
// every attempt times out and, once retries are spent, the request fails.
func TestDeadlineExhaustionFails(t *testing.T) {
	cfg := Config{
		Machines: 1,
		Slots:    2,
		Policy:   policy.Sync,
		Scale:    0.5,
		Tenants: []TenantSpec{
			{Name: "doomed", Bench: workload.Caffe, Requests: 3, Priority: 1,
				Deadline: sim.Microsecond, Retries: 1},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	ts := s.Tenants[0]
	if ts.Failed != 3 || s.Completed != 0 {
		t.Errorf("failed/completed = %d/%d, want 3/0", ts.Failed, s.Completed)
	}
	// Each request: primary + one retry, both timing out.
	if ts.Retries != 3 {
		t.Errorf("retries = %d, want 3 (one per request)", ts.Retries)
	}
	if ts.TimedOut != 6 {
		t.Errorf("timeouts = %d, want 6 (two per request)", ts.TimedOut)
	}
	if ts.DeadlineNs != int64(sim.Microsecond) {
		t.Errorf("deadline_ns = %d, want %d", ts.DeadlineNs, sim.Microsecond)
	}
}

// TestHedgingDispatchesAndWins: with one slot per epoch and many queued
// requests, later requests outlive the warmed-up p99 estimate and hedge;
// hedged duplicates must never double-complete a request.
func TestHedgingDispatchesAndWins(t *testing.T) {
	cfg := Config{
		Machines: 2,
		Slots:    1,
		Policy:   policy.Sync,
		Routing:  LeastLoaded,
		Scale:    0.5,
		Tenants: []TenantSpec{
			// Arrivals (every 0.5ms) outpace service (~1.6ms/epoch), so
			// the queue — and with it end-to-end latency — grows steadily:
			// once the p99 window warms up, later requests outlive it and
			// hedge. Much faster arrival rates land every request before
			// the tracker has its eight warm-up samples and never hedge.
			{Name: "hedger", Bench: workload.RandomWalk, Requests: 40, Priority: 1,
				Rate: 2000, Hedge: true},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	ts := s.Tenants[0]
	if ts.Hedges == 0 {
		t.Fatalf("no hedges dispatched under sustained queueing")
	}
	if s.Completed != s.Requests {
		t.Errorf("completed %d of %d: hedging must not lose requests", s.Completed, s.Requests)
	}
	if ts.HedgeWins > ts.Hedges {
		t.Errorf("hedge wins %d exceed hedges %d", ts.HedgeWins, ts.Hedges)
	}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "summary", string(b), "a549abd4ff58b93bc648dc2e47161e0a5e75e776f5e6177e7f96dd9383afdb29")
}

// TestLifecycleTimersDigest pins a fleet whose three timer kinds all fire
// (timeouts, retries and hedges on two tenants): its summary, and its trace
// of request-lifecycle events, whose timestamps move with any timer.
func TestLifecycleTimersDigest(t *testing.T) {
	var trace bytes.Buffer
	filter, err := obs.ParseFilter("RequestArrive,RequestRoute,RequestDone,ReqTimeout,ReqRetry,ReqHedge,ReqShed")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Machines: 3,
		Slots:    1,
		Policy:   policy.Sync,
		Routing:  LeastLoaded,
		Scale:    0.5,
		Tracer:   obs.NewTracer(obs.NewJSONL(&trace), filter),
		Tenants: []TenantSpec{
			{Name: "hedger", Bench: workload.RandomWalk, Requests: 30, Priority: 1,
				Rate: 2000, Hedge: true},
			{Name: "tight", Bench: workload.Caffe, Requests: 12, Priority: 3,
				Rate: 2000, Deadline: 1500 * sim.Microsecond, Retries: 3},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Close(); err != nil {
		t.Fatal(err)
	}
	c := res.Summary.Chaos
	if c == nil || c.Timeouts == 0 || c.Retries == 0 || c.Hedges == 0 {
		t.Fatalf("want timeouts, retries and hedges, got %+v", c)
	}
	b, err := json.Marshal(res.Summary)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "summary", string(b), "22b78c0c110b02645565dc5e2a9b5e58a21463aef332d6639226b933bad96f6c")
	checkDigest(t, "trace", trace.String(), "4aa0c756c1e6857862e2a030057061244c12996eb0b37b695dc515da8bc798ef")
}

// TestPriorityShedding: at ShedDepth the low-priority tenant is rejected,
// the top-priority tenant never is.
func TestPriorityShedding(t *testing.T) {
	cfg := Config{
		Machines:  1,
		Slots:     1,
		Policy:    policy.Sync,
		Scale:     0.5,
		ShedDepth: 2,
		Tenants: []TenantSpec{
			{Name: "gold", Bench: workload.Caffe, Requests: 6, Priority: 5},
			{Name: "bronze", Bench: workload.RandomWalk, Requests: 6, Priority: 1},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	gold, bronze := s.Tenants[0], s.Tenants[1]
	if gold.Shed != 0 {
		t.Errorf("top-priority tenant shed %d requests", gold.Shed)
	}
	if bronze.Shed == 0 {
		t.Errorf("low-priority tenant shed nothing at depth %d with a 12-request burst", cfg.ShedDepth)
	}
	if gold.Completed != gold.Requests {
		t.Errorf("gold completed %d of %d", gold.Completed, gold.Requests)
	}
	if bronze.Completed+bronze.Shed != bronze.Requests {
		t.Errorf("bronze completed %d + shed %d != %d", bronze.Completed, bronze.Shed, bronze.Requests)
	}
	if s.Chaos == nil || s.Chaos.Shed != bronze.Shed {
		t.Errorf("fleet chaos stats missing shed accounting: %+v", s.Chaos)
	}
}

// TestBrownoutInflatesLatency: a brownout-only schedule keeps every
// machine serving but slower; everything completes, brownouts register,
// and no downtime accrues.
func TestBrownoutInflatesLatency(t *testing.T) {
	cfg := chaoticFleetConfig(2, RoundRobin)
	cfg.Chaos = chaos.Config{Seed: 11, BrownRate: 200, BrownDur: sim.Millisecond, BrownMult: 8}
	cfg.Tenants[0].Deadline = 0
	cfg.Tenants[0].Retries = 0
	cfg.Tenants[1].Hedge = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Chaos == nil || s.Chaos.Brownouts == 0 {
		t.Fatalf("brownout-heavy schedule delivered no brownouts")
	}
	if s.Completed != s.Requests {
		t.Errorf("completed %d of %d under brownouts", s.Completed, s.Requests)
	}
	for _, m := range s.PerMachine {
		if m.DownNs != 0 {
			t.Errorf("machine %d accumulated downtime %d under brownouts only", m.ID, m.DownNs)
		}
	}
}

// TestFlapDrainsGracefully: a flap-only schedule must complete everything
// (graceful drains finish their in-flight epoch) while registering flaps
// and downtime.
func TestFlapDrainsGracefully(t *testing.T) {
	cfg := chaoticFleetConfig(4, LeastLoaded)
	cfg.Chaos = chaos.Config{Seed: 13, FlapRate: 150}
	cfg.Tenants[0].Deadline = 0
	cfg.Tenants[0].Retries = 0
	cfg.Tenants[1].Hedge = false
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary
	if s.Chaos == nil || s.Chaos.Flaps == 0 {
		t.Fatalf("flap-heavy schedule delivered no flaps")
	}
	if s.Completed != s.Requests {
		t.Errorf("completed %d of %d under flapping", s.Completed, s.Requests)
	}
	if s.Chaos.Crashes != 0 {
		t.Errorf("flap-only schedule delivered %d crashes", s.Chaos.Crashes)
	}
}
