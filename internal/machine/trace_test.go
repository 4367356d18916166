package machine_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"itsim/internal/fault"
	"itsim/internal/machine"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// tracedRun runs one seed batch under one policy with the given sink
// attached and every event type admitted.
func tracedRun(t *testing.T, batchIdx int, kind policy.Kind, sink obs.Sink, gauge sim.Time) {
	t.Helper()
	batch := workload.Batches()[batchIdx]
	gens := batch.Generators(0.02)
	specs := make([]machine.ProcessSpec, len(gens))
	for j, g := range gens {
		specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
	}
	m := newMachine(t, testConfig(), policy.New(kind), batch.Name, specs)
	m.Instrument(obs.NewTracer(sink, obs.Filter{}), gauge)
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s/%s: %v", kind, batch.Name, err)
	}
}

// The headline acceptance test: an ITS run on a seed batch traced in Chrome
// format must yield schema-valid trace JSON containing the ITS signature
// activity — prefetch issues, a pre-execution window, and major-fault spans
// whose begin/end records pair up at consistent virtual timestamps.
func TestChromeTraceITSSeedBatch(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewChrome(&buf)
	tracedRun(t, 2, policy.ITS, sink, 100*sim.Microsecond)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	var issues, windows, gauges int
	// Open major-fault spans keyed by (tid, va); count matched pairs.
	open := map[string]float64{}
	matched := 0
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "prefetch-issue":
			issues++
		case ev.Name == "preexec" && ev.Ph == "X":
			windows++
		case ev.Ph == "C":
			gauges++
		case ev.Name == "major-fault":
			key := fmt.Sprintf("%d/%v", ev.TID, ev.Args["va"])
			switch ev.Ph {
			case "B":
				open[key] = ev.Ts
			case "E":
				begin, ok := open[key]
				if !ok {
					t.Fatalf("major-fault end without begin for %s at ts=%v", key, ev.Ts)
				}
				if ev.Ts < begin {
					t.Fatalf("major-fault %s ends at %v before its begin %v", key, ev.Ts, begin)
				}
				delete(open, key)
				matched++
			}
		}
	}
	if issues == 0 {
		t.Error("no PrefetchIssue events in an ITS trace")
	}
	if windows == 0 {
		t.Error("no PreexecWindow events in an ITS trace")
	}
	if matched == 0 {
		t.Error("no matched MajorFaultBegin/End pair")
	}
	if len(open) != 0 {
		t.Errorf("%d major-fault spans never closed", len(open))
	}
	if gauges == 0 {
		t.Error("no gauge counter samples despite -gauge-interval")
	}
}

// The raw event stream must pair every MajorFaultEnd with a Begin at exactly
// End.Time − End.Dur for the same pid and address — the virtual-timestamp
// match the Chrome spans are built from.
func TestEventStreamFaultWindowsPair(t *testing.T) {
	ring := obs.NewRing(1 << 20)
	tracedRun(t, 2, policy.ITS, ring, 0)
	if ring.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; enlarge the buffer", ring.Dropped())
	}

	type key struct {
		pid int
		va  uint64
	}
	begins := map[key][]sim.Time{}
	modes := map[string]int{}
	ends := 0
	for _, ev := range ring.Events() {
		switch ev.Type {
		case obs.EvMajorFaultBegin:
			k := key{ev.PID, ev.VA}
			begins[k] = append(begins[k], ev.Time)
		case obs.EvMajorFaultEnd:
			ends++
			modes[ev.Cause]++
			k := key{ev.PID, ev.VA}
			want := ev.Time - ev.Dur
			q := begins[k]
			if len(q) == 0 {
				t.Fatalf("MajorFaultEnd pid=%d va=%#x with no pending begin", ev.PID, ev.VA)
			}
			if q[0] != want {
				t.Fatalf("MajorFaultEnd pid=%d va=%#x: Time-Dur=%v but begin was %v", ev.PID, ev.VA, want, q[0])
			}
			begins[k] = q[1:]
		}
	}
	if ends == 0 {
		t.Fatal("no major-fault windows in an ITS run")
	}
	for k, q := range begins {
		if len(q) != 0 {
			t.Fatalf("pid=%d va=%#x has %d unclosed fault windows", k.pid, k.va, len(q))
		}
	}
	for mode := range modes {
		switch mode {
		case "sync", "async", "spin":
		default:
			t.Fatalf("unexpected fault handling mode %q", mode)
		}
	}
}

// Satellite: every seed policy on every seed batch must pass the always-on
// invariant auditor (Run returns its verdict) — the positive half of the
// audit tests; deliberate mis-accounting is covered in internal/obs.
func TestAuditorPassesAllPoliciesAllBatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy×batch sweep in -short mode")
	}
	for _, batch := range workload.Batches() {
		for _, kind := range policy.Kinds() {
			batch, kind := batch, kind
			t.Run(batch.Name+"/"+kind.String(), func(t *testing.T) {
				gens := batch.Generators(0.02)
				specs := make([]machine.ProcessSpec, len(gens))
				for j, g := range gens {
					specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
				}
				m := newMachine(t, testConfig(), policy.New(kind), batch.Name, specs)
				run, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				aud := m.Auditors()[0]
				if aud.Events() == 0 {
					t.Fatal("auditor observed no events")
				}
				if got, want := aud.Accounted(), run.Makespan; got != want {
					t.Fatalf("auditor accounted %v, makespan %v", got, want)
				}
			})
		}
	}
}

// The JSONL sink must survive a full machine run and stay line-decodable.
func TestJSONLTraceSeedBatch(t *testing.T) {
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	tracedRun(t, 1, policy.SyncPrefetch, sink, 0)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	lines := 0
	for dec.More() {
		var m map[string]any
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("line %d: %v", lines, err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("no JSONL events")
	}
}

// Gauge samples must be strictly periodic in virtual time and stop draining
// the engine once the run is over (bounded count).
func TestGaugeSampling(t *testing.T) {
	ring := obs.NewRing(1 << 20)
	tracedRun(t, 1, policy.Sync, ring, 50*sim.Microsecond)
	byGauge := map[string][]sim.Time{}
	for _, ev := range ring.Events() {
		if ev.Type == obs.EvGauge {
			byGauge[ev.Cause] = append(byGauge[ev.Cause], ev.Time)
		}
	}
	for _, name := range []string{"ready_queue_depth", "outstanding_swapins", "llc_lines", "busy_storage_channels"} {
		ts := byGauge[name]
		if len(ts) == 0 {
			t.Fatalf("gauge %q never sampled", name)
		}
		for i := 1; i < len(ts); i++ {
			if ts[i] <= ts[i-1] {
				t.Fatalf("gauge %q not monotonic: %v after %v", name, ts[i], ts[i-1])
			}
		}
	}
}

// A faulty run with demotion and prefetch throttling enabled must surface
// every degradation decision as a typed event: injections (with their
// cause), kernel retries, spin-budget demotions (and the matching "demote"
// fault-window mode), and throttled prefetch walks.
func TestFaultEventsTraced(t *testing.T) {
	batch := workload.Batches()[2]
	gens := batch.Generators(0.02)
	specs := make([]machine.ProcessSpec, len(gens))
	for j, g := range gens {
		specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
	}
	cfg := testConfig()
	cfg.Fault = fault.Config{Seed: 42, TailProb: 0.2, TailMult: 16, StallProb: 0.01, DMAFailProb: 0.05}
	cfg.SpinBudget = 4 * sim.Microsecond
	m := newMachine(t, cfg, policy.NewITS(policy.ITSConfig{PrefetchThrottleFraction: 0.1}), batch.Name, specs)
	ring := obs.NewRing(1 << 20)
	m.Instrument(obs.NewTracer(ring, obs.Filter{}), 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if ring.Dropped() > 0 {
		t.Fatalf("ring dropped %d events; enlarge the buffer", ring.Dropped())
	}

	injects := map[string]int{}
	var retries, demotes, throttles, demoteEnds int
	for _, ev := range ring.Events() {
		switch ev.Type {
		case obs.EvFaultInject:
			injects[ev.Cause]++
			if ev.Dur <= 0 && ev.Cause != "dma" {
				t.Fatalf("FaultInject %q with no injected delay: %+v", ev.Cause, ev)
			}
		case obs.EvIORetry:
			retries++
			if ev.Value < 1 {
				t.Fatalf("IORetry with attempt %d", ev.Value)
			}
		case obs.EvDemote:
			demotes++
			if ev.Dur <= sim.Time(ev.Value) {
				t.Fatalf("Demote with predicted wait %v not over budget %v", ev.Dur, sim.Time(ev.Value))
			}
		case obs.EvPrefetchThrottle:
			throttles++
		case obs.EvMajorFaultEnd:
			if ev.Cause == "demote" {
				demoteEnds++
			}
		}
	}
	for _, cause := range []string{"tail", "stall", "dma"} {
		if injects[cause] == 0 {
			t.Errorf("no %q FaultInject events", cause)
		}
	}
	if retries == 0 {
		t.Error("no IORetry events despite DMA failures")
	}
	if demotes == 0 {
		t.Error("no Demote events despite tail spikes over the spin budget")
	}
	if demotes != demoteEnds {
		t.Errorf("Demote events (%d) != demote-mode fault windows (%d)", demotes, demoteEnds)
	}
	if throttles == 0 {
		t.Error("no PrefetchThrottle events despite a saturated device")
	}
}

// timeBudget guards against the trace tests ballooning the suite.
func TestTraceRunsStayFast(t *testing.T) {
	start := time.Now()
	tracedRun(t, 1, policy.ITS, obs.NewRing(1024), 0)
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("traced run took %v", d)
	}
}
