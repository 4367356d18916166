package smp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/smp"
	"itsim/internal/workload"
)

// testConfig is the default platform with test-sized slices and the given
// core count.
func testConfig(cores int) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Cores = cores
	cfg.MinSlice = 20 * sim.Microsecond
	cfg.MaxSlice = 200 * sim.Microsecond
	return cfg
}

// testSpecs builds fresh specs for the 2_Data_Intensive batch (generators
// are stateful, so every machine needs its own set).
func testSpecs(t *testing.T, scale float64) []machine.ProcessSpec {
	t.Helper()
	b, err := workload.BatchByName("2_Data_Intensive")
	if err != nil {
		t.Fatal(err)
	}
	gens := b.Generators(scale)
	specs := make([]machine.ProcessSpec, len(gens))
	for i, g := range gens {
		specs[i] = machine.ProcessSpec{
			Name:     g.Name(),
			Gen:      g,
			Priority: b.Priorities[i],
			BaseVA:   workload.BaseVA,
		}
	}
	return specs
}

func factory(kind policy.Kind) func() policy.Policy {
	return func() policy.Policy {
		if kind == policy.ITS {
			return policy.NewITS(policy.ITSConfig{})
		}
		return policy.New(kind)
	}
}

// summaryJSON serializes a run summary, per-core section included.
func summaryJSON(t *testing.T, run *metrics.Run) string {
	t.Helper()
	out, err := json.Marshal(run.Summary())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// checkMachineDigest runs the batch at one core under each policy kind and
// compares the SHA-256 of its summary, per-core section stripped, with want:
// digests of the summaries the separate single-core run loop produced before
// it was deleted (that loop wrote no per-core section).
func checkMachineDigest(t *testing.T, cfg machine.Config, want map[string]string) {
	t.Helper()
	for _, kind := range policy.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := smp.New(cfg, factory(kind), "2_Data_Intensive", testSpecs(t, 0.02))
			if err != nil {
				t.Fatalf("smp.New: %v", err)
			}
			run, err := m.Run()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			s := run.Summary()
			s.Cores = nil
			out, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(out)
			if got := hex.EncodeToString(sum[:]); got != want[kind.String()] {
				t.Errorf("1-core summary diverged from the single-core machine: sha256 %s, want %s\n%s",
					got, want[kind.String()], out)
			}
		})
	}
}

// TestSingleCoreMatchesMachine is the degeneracy guarantee: with Cores=1 the
// SMP coordinator reproduces the single-core machine's metrics exactly, for
// every policy kind.
func TestSingleCoreMatchesMachine(t *testing.T) {
	checkMachineDigest(t, testConfig(1), map[string]string{
		"Async":         "df1a1e818003c913639c1df181a93ad73a22242d862b1f73ff5f7b6b6f198323",
		"Sync":          "4a6f0c4c73f574e5d8a80d61906571dbc75c7e2d98532341cf067e425c376af2",
		"Sync_Runahead": "f6d61859bfcd3c25c67183048a0417cafcb72a39b717ba5c7c3fe01c8cf0c74b",
		"Sync_Prefetch": "bb52e65428f3a37b89de784173b7fc02dbed52c1a505eadfc4a522bf11e8538b",
		"ITS":           "0d302e7e359aff9bd941dbbdef4217a9e46828f24449d93e29b05e211951a06b",
	})
}

// TestEquivalenceProperty pins the one-core machine's output: for every
// policy kind and a sweep of config variants (mechanistic TLB, huge-I/O swap
// clusters, polling recovery, strict priorities, different trace scales),
// the SHA-256 of the 1-core summary must match the digest recorded when a
// separate single-core run loop still existed and both loops produced these
// bytes (less the per-core section, which only the coordinator writes). A
// change to any single-machine number fails here; TestFaultEquivalence pins
// the misbehaving-device config.
func TestEquivalenceProperty(t *testing.T) {
	variants := []struct {
		name  string
		scale float64
		mut   func(*machine.Config)
	}{
		{"base", 0.03, func(cfg *machine.Config) {}},
		{"tlb", 0.02, func(cfg *machine.Config) { cfg.TLBEntries = 64 }},
		{"swap_cluster", 0.02, func(cfg *machine.Config) { cfg.SwapClusterPages = 4 }},
		{"poll_recovery", 0.02, func(cfg *machine.Config) { cfg.RecoveryPoll = 2 * sim.Microsecond }},
		{"strict_priority", 0.02, func(cfg *machine.Config) { cfg.StrictPriority = true }},
		{"combined", 0.01, func(cfg *machine.Config) {
			cfg.TLBEntries = 64
			cfg.SwapClusterPages = 4
			cfg.RecoveryPoll = 2 * sim.Microsecond
		}},
	}
	digests := map[string]map[string]string{
		"base": {
			"Async":         "1c588429224a5e1e9e3a72b6e2c753a9d33b1f74353aa2f10f9967b7a10b0997",
			"Sync":          "c89e0a12cad822f071dfe0d4d3a9b85859673ce9ce62de360a5b105a75adab9d",
			"Sync_Runahead": "46e53ec624fbfae78aefdfbffaf15ea3375bb7ef3951e2e00cd39e7cdacdeacc",
			"Sync_Prefetch": "3e30e8f3f749d3217081ca241a31ffbe613bde2ed63f4380fb40a9277698f8ba",
			"ITS":           "5996100f2eb8587a6ca371d9f0da52364872c1c399d7ff741d8c60c9cdaea327",
		},
		"tlb": {
			"Async":         "c55e2da2529564c94171e763a3c3da816bca7b4b5b215349a61983f39383f883",
			"Sync":          "88072ef5a90ef2344b45a4c0c29e05232d9c392ffbd20d59b4068f4f109e3fb5",
			"Sync_Runahead": "a55d3df35945d5f76332b717600f78b4342bbb0cb39bfacf5b7a0c5a03ca71f7",
			"Sync_Prefetch": "1d4a0a75aae4c1610b754511576bf68060686c4e5afc87fad5352b8dd81dba98",
			"ITS":           "7e6c5b096976e806dcad6c89765f3b4dc46be326b45e6be02656d3aa95c0efed",
		},
		"swap_cluster": {
			"Async":         "60600293ba59b34f2c6c08f287a03db18f2588d44a96b76b380f13d20311c543",
			"Sync":          "a94d43b24a06376f2bf127f4ca28f58624962b5dc0adfcad00d6f02ed6a7ad70",
			"Sync_Runahead": "9f0fe44e6491778dee8130bc4c47feeda96ca0b40b32a4f6ce4250760b31626b",
			"Sync_Prefetch": "d6f28df375125f9edc4f73e668fe110d04a0e211bfd1bf3856dc5dfb07590959",
			"ITS":           "9991393de74e3b8d12227fc244d8a9f041cf2fefabdab26ed5596dc399fc41c9",
		},
		"poll_recovery": {
			"Async":         "aa9ab7b9af7d0e6745f13a2b14ef2e8ad0956235a3f671f64bbe2236ab0fd047",
			"Sync":          "4f9748cb82b921359acc0f44d4cb4f47eed84c9de3071395d6703e7d9ba5f185",
			"Sync_Runahead": "3855a13d04271c8cf0b17cb73408bdcbb4dd5c1d5b353768bdb1ceccd4dde4e9",
			"Sync_Prefetch": "623656ade53782bb4626e8848d40855a66d916cf9ce7077cbe0348c767221db6",
			"ITS":           "1bb02536c951eb25bd2c33a1be5b5d3683d904bb5a6e892668a7f3a30f7070af",
		},
		"strict_priority": {
			"Async":         "2e6135f42db088db49ff96974efc647a383d9bb2cc3d54738f0c6a8e015189d1",
			"Sync":          "74b432c909937d2740d77d2d0190e4ed68c2571ae990da0577f8ebb8eb84b8be",
			"Sync_Runahead": "dcb321dd5d5d89e2a7ab89871fef679a9d8e9bcd8d6fc74b35c755bf04324de0",
			"Sync_Prefetch": "a3def7b930f33baf8dba6c450b2a296a98cdb2300765794c2f9c8dce860064fc",
			"ITS":           "8f4386e4626fedb1ba40632fc9dc3a1bc2f700a4b1fefb0f822e95b70aeb55cc",
		},
		"combined": {
			"Async":         "b20213cef7c698ae4ae24ebde7377d447883e007c6a1fa5ba072d2aa78097c94",
			"Sync":          "e3a4bcfba1d959058013b80619ee7887e34ddf703a64698ae07f9e5ced660461",
			"Sync_Runahead": "eb5ba5ed9932106c695802880378875c948ccc2e724874361fbe5dea4b91e2fd",
			"Sync_Prefetch": "6ee223ee9ec4cb7fa279ddc103daf9a14d65208c5b76b44185c726b8ba1bae3a",
			"ITS":           "1d69b4a596387d91c6b3932dec6000d74534d342e5059b5eb4728344693a14bd",
		},
	}
	for _, v := range variants {
		for _, kind := range policy.Kinds() {
			t.Run(v.name+"/"+kind.String(), func(t *testing.T) {
				cfg := testConfig(1)
				v.mut(&cfg)
				m, err := smp.New(cfg, factory(kind), "2_Data_Intensive", testSpecs(t, v.scale))
				if err != nil {
					t.Fatalf("smp.New: %v", err)
				}
				run, err := m.Run()
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				sum := sha256.Sum256([]byte(summaryJSON(t, run)))
				if got, want := hex.EncodeToString(sum[:]), digests[v.name][kind.String()]; got != want {
					t.Errorf("1-core summary under %s drifted: sha256 %s, want %s", v.name, got, want)
				}
			})
		}
	}
}

// TestDeterminism runs the 4-core machine twice on identical inputs and
// demands byte-identical summaries, per-core counters included.
func TestDeterminism(t *testing.T) {
	const scale = 0.02
	run := func() string {
		m, err := smp.New(testConfig(4), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, scale))
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		return summaryJSON(t, r)
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("4-core run is not deterministic\n first: %s\nsecond: %s", a, b)
	}
}

// TestPerCoreTimeConservation checks the per-core ledger on a multi-core
// run: every nanosecond of each core's local clock is CPU occupancy,
// scheduler idle, or context-switch time — and the run makespan is the
// latest local clock.
func TestPerCoreTimeConservation(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Sync, policy.Async, policy.ITS} {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := smp.New(testConfig(4), factory(kind), "2_Data_Intensive", testSpecs(t, 0.02))
			if err != nil {
				t.Fatal(err)
			}
			run, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Cores) != 4 {
				t.Fatalf("want 4 core entries, got %d", len(run.Cores))
			}
			var maxClock sim.Time
			for _, c := range run.Cores {
				accounted := c.CPUTime + c.SchedulerIdle + c.ContextSwitchTime
				if accounted != c.LocalClock {
					t.Errorf("core %d: accounted %v != local clock %v (cpu %v, idle %v, switch %v)",
						c.ID, accounted, c.LocalClock, c.CPUTime, c.SchedulerIdle, c.ContextSwitchTime)
				}
				if c.LocalClock > maxClock {
					maxClock = c.LocalClock
				}
			}
			if run.Makespan != maxClock {
				t.Errorf("makespan %v != max local clock %v", run.Makespan, maxClock)
			}
		})
	}
}

// TestWorkStealingOccurs: with more processes than cores, idle cores must
// pull Ready work over, and every steal must pair with a migration on the
// victim side.
func TestWorkStealingOccurs(t *testing.T) {
	m, err := smp.New(testConfig(4), factory(policy.ITS), "2_Data_Intensive", testSpecs(t, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	run, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	var steals, migrated uint64
	for _, c := range run.Cores {
		steals += c.Steals
		migrated += c.MigratedAway
	}
	if steals == 0 {
		t.Error("no steals on a 4-core run with 5 processes")
	}
	if steals != migrated {
		t.Errorf("steals (%d) != migrations (%d)", steals, migrated)
	}
}

// TestNewErrors covers the validation surface the -cores flag reaches.
func TestNewErrors(t *testing.T) {
	specs := func() []machine.ProcessSpec { return testSpecs(t, 0.01) }
	cases := []struct {
		name string
		cfg  machine.Config
		pol  func() policy.Policy
		want string
	}{
		{"negative cores", testConfig(-1), factory(policy.Sync), "core count"},
		{"non-power-of-two LLC ways", func() machine.Config {
			cfg := testConfig(2)
			cfg.LLCWays = 3
			return cfg
		}(), factory(policy.Sync), "power of two"},
		{"carve-out too small", testConfig(16), factory(policy.Sync), "pre-execute"},
		{"nil factory", testConfig(2), nil, "factory"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := smp.New(tc.cfg, tc.pol, "test", specs())
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestZeroCoresDefaultsToOne: a zero core count builds a one-core machine
// (the Options zero value).
func TestZeroCoresDefaultsToOne(t *testing.T) {
	cfg := testConfig(0)
	m, err := smp.New(cfg, factory(policy.Sync), "test", testSpecs(t, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if m.CoreCount() != 1 {
		t.Errorf("CoreCount = %d, want 1", m.CoreCount())
	}
}
