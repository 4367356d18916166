package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"itsim/internal/core"
	"itsim/internal/fault"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/replay"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// writeFaultyTrace runs an identically-configured faulty ITS batch and
// writes its JSONL trace plus JSON summary under dir.
func writeFaultyTrace(t *testing.T, dir, stem string) (trace, summary string) {
	t.Helper()
	trace = filepath.Join(dir, stem+".jsonl")
	summary = filepath.Join(dir, stem+".json")
	f, err := os.Create(trace)
	if err != nil {
		t.Fatal(err)
	}
	trc := obs.NewTracer(obs.NewJSONL(f), obs.Filter{})
	run, err := core.RunBatch(workload.Batches()[1], policy.ITS, core.Options{
		Scale: 0.02, Cores: 2, Tracer: trc,
		Fault:      fault.Config{Seed: 42, TailProb: 0.2, TailMult: 16, StallProb: 0.01, DMAFailProb: 0.05},
		SpinBudget: 4 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(run.Summary())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(summary, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return trace, summary
}

func TestObserveDeterministicAttributeAndDiff(t *testing.T) {
	dir := t.TempDir()
	traceA, sumA := writeFaultyTrace(t, dir, "a")
	traceB, _ := writeFaultyTrace(t, dir, "b")

	// Identically-seeded runs: byte-identical attribute output...
	var outA, outB bytes.Buffer
	if code := observeMain([]string{"attribute", traceA}, &outA); code != 0 {
		t.Fatalf("attribute A exited %d", code)
	}
	if code := observeMain([]string{"attribute", traceB}, &outB); code != 0 {
		t.Fatalf("attribute B exited %d", code)
	}
	if outA.Len() == 0 || !bytes.Equal(outA.Bytes(), outB.Bytes()) {
		t.Fatal("attribute output of identically-seeded runs not byte-identical")
	}

	// ...an empty diff with exit code 0...
	var dout bytes.Buffer
	if code := observeMain([]string{"diff", traceA, traceB}, &dout); code != 0 {
		t.Fatalf("diff of identical traces exited %d:\n%s", code, dout.String())
	}
	if !strings.Contains(dout.String(), "traces identical") {
		t.Fatalf("diff report: %s", dout.String())
	}

	// ...and a zero-tolerance reconciliation against the run summary.
	var cout bytes.Buffer
	if code := observeMain([]string{"attribute", "-format", "json", "-check", sumA, traceA}, &cout); code != 0 {
		t.Fatalf("attribute -check exited %d", code)
	}
	if !strings.Contains(cout.String(), "reconciles") {
		t.Fatalf("check output: %s", cout.String())
	}
	var att replay.Attribution
	rest := cout.String()[strings.Index(cout.String(), "{"):]
	if err := json.Unmarshal([]byte(rest), &att); err != nil {
		t.Fatalf("attribute -format json output not JSON: %v", err)
	}
	if len(att.Runs) != 1 || len(att.Runs[0].Cores) != 2 {
		t.Fatalf("unexpected attribution shape: %+v", att.Runs)
	}
}

// -check reconciles per pid as well as per core: a summary whose one
// process claims a nanosecond more CPU than the trace folds must fail it,
// though every per-core total still matches.
func TestObserveCheckReconcilesPerPid(t *testing.T) {
	dir := t.TempDir()
	trace, sum := writeFaultyTrace(t, dir, "a")
	data, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	var s metrics.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	s.Procs[1].CPUTime++
	if data, err = json.Marshal(s); err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(dir, "tampered.json")
	if err := os.WriteFile(tampered, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := observeMain([]string{"attribute", "-check", sum, trace}, &out); code != 0 {
		t.Fatalf("-check against the run's own summary exited %d", code)
	}
	if code := observeMain([]string{"attribute", "-check", tampered, trace}, &out); code != 1 {
		t.Fatalf("-check against a summary with one tampered process CPUTime exited %d, want 1", code)
	}
}

func TestObservePerturbationLocalized(t *testing.T) {
	dir := t.TempDir()
	traceA, _ := writeFaultyTrace(t, dir, "a")

	data, err := os.ReadFile(traceA)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := replay.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	idx := len(evs) / 2
	evs[idx].Dur += 5
	traceB := filepath.Join(dir, "b.jsonl")
	f, err := os.Create(traceB)
	if err != nil {
		t.Fatal(err)
	}
	sink := obs.NewJSONL(f)
	for _, ev := range evs {
		sink.Write(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code := observeMain([]string{"diff", traceA, traceB}, &out)
	if code != 1 {
		t.Fatalf("diff of perturbed trace exited %d, want 1:\n%s", code, out.String())
	}
	want := "first divergence at event #" + strconv.Itoa(idx)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("report does not localize the perturbation (%s):\n%s", want, out.String())
	}
}

func TestObserveTimeline(t *testing.T) {
	dir := t.TempDir()
	trace, _ := writeFaultyTrace(t, dir, "a")
	var out bytes.Buffer
	if code := observeMain([]string{"timeline", "-bucket", "1ms", trace}, &out); code != 0 {
		t.Fatalf("timeline exited %d", code)
	}
	if !strings.Contains(out.String(), "syncwait_p99") {
		t.Fatalf("timeline output missing percentile column:\n%s", out.String())
	}
}

func TestObserveUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := observeMain(nil, &out); code != 2 {
		t.Fatalf("no args exited %d, want 2", code)
	}
	if code := observeMain([]string{"bogus"}, &out); code != 2 {
		t.Fatalf("unknown command exited %d, want 2", code)
	}
	if code := observeMain([]string{"attribute", filepath.Join(t.TempDir(), "missing.jsonl")}, &out); code != 2 {
		t.Fatalf("missing file exited %d, want 2", code)
	}
}

func TestObserveRejectsFutureSchema(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "future.jsonl")
	if err := os.WriteFile(bad, []byte("{\"itsim_trace\":99}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := observeMain([]string{"attribute", bad}, &out); code != 2 {
		t.Fatalf("future schema exited %d, want 2", code)
	}
}
