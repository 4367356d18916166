package schemafreeze_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/schemafreeze"
)

// setFlag sets an analyzer flag for the duration of the test.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	if err := schemafreeze.Analyzer.Flags.Set(name, value); err != nil {
		t.Fatalf("setting -%s: %v", name, err)
	}
	t.Cleanup(func() { schemafreeze.Analyzer.Flags.Set(name, "") })
}

// TestSchemaFreeze is the drift gate's both-polarity (and negative
// acceptance) test: a frozen struct matching the baseline passes, a field
// added without regenerating the baseline fails — with the byte-layout note
// exactly when the added field lacks omitempty — an unregistered frozen
// struct fails, and an unfrozen struct is ignored.
func TestSchemaFreeze(t *testing.T) {
	setFlag(t, "baseline", filepath.Join("..", "testdata", "frozen_fixture.json"))
	atest.Run(t, "../testdata", schemafreeze.Analyzer, "itsim/internal/policy")
}

// TestEventExhaustiveness checks both scopes of the event-vocabulary rule
// on their fixture packages: sink Write switches must handle every event
// kind or default explicitly (itsim/internal/obs fixture), and
// stream-consumer event switches — in any function — must be exhaustive or
// explicitly defaulted (itsim/internal/replay and itsim/internal/cluster
// fixtures).
func TestEventExhaustiveness(t *testing.T) {
	atest.Run(t, "../testdata", schemafreeze.Analyzer,
		"itsim/internal/obs", "itsim/internal/replay", "itsim/internal/cluster")
}

// TestFreezeMode captures the fixture package's layouts and round-trips
// them through MergeCapture/FormatBaseline: the regenerated baseline must
// contain every frozen struct with its current layout, at which point a
// re-check against it is clean.
func TestFreezeMode(t *testing.T) {
	capture := filepath.Join(t.TempDir(), "capture.jsonl")
	setFlag(t, "freeze", capture)
	if diags := atest.RunResult(t, "../testdata", schemafreeze.Analyzer, "itsim/internal/policy"); len(diags) != 0 {
		t.Fatalf("freeze mode must not report diagnostics, got %+v", diags)
	}
	schemafreeze.Analyzer.Flags.Set("freeze", "")

	data, err := os.ReadFile(capture)
	if err != nil {
		t.Fatalf("reading capture: %v", err)
	}
	baseline, err := schemafreeze.MergeCapture(data)
	if err != nil {
		t.Fatalf("merging capture: %v", err)
	}
	for _, name := range []string{
		"itsim/internal/policy.Frozen",
		"itsim/internal/policy.Drifted",
		"itsim/internal/policy.Grown",
		"itsim/internal/policy.Unregistered",
	} {
		if _, ok := baseline[name]; !ok {
			t.Errorf("capture missing %s: %v", name, baseline)
		}
	}
	if _, ok := baseline["itsim/internal/policy.Free"]; ok {
		t.Errorf("unfrozen struct captured: %v", baseline)
	}
	if got := baseline["itsim/internal/policy.Frozen"]; got != `Name string json:"name"; Val uint64 json:"val"` {
		t.Errorf("unexpected layout for Frozen: %q", got)
	}

	// The regenerated baseline silences the checker.
	regenerated := filepath.Join(t.TempDir(), "frozen.json")
	if err := os.WriteFile(regenerated, schemafreeze.FormatBaseline(baseline), 0o644); err != nil {
		t.Fatal(err)
	}
	setFlag(t, "baseline", regenerated)
	if diags := atest.RunResult(t, "../testdata", schemafreeze.Analyzer, "itsim/internal/policy"); len(diags) != 0 {
		t.Fatalf("regenerated baseline must be clean, got %+v", diags)
	}
}

// TestMergeCaptureConflict rejects two different layouts for one struct.
func TestMergeCaptureConflict(t *testing.T) {
	_, err := schemafreeze.MergeCapture([]byte(
		`{"name":"p.S","layout":"A int"}` + "\n" + `{"name":"p.S","layout":"B int"}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "conflicting layouts") {
		t.Fatalf("want conflicting-layouts error, got %v", err)
	}
}
