package itslint_test

import (
	"reflect"
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/driver"
	"itsim/internal/analysis/entropyflow"
	"itsim/internal/analysis/itslint"
	"itsim/internal/analysis/schemafreeze"
)

// TestDirectiveMachinery drives the storage fixture through entropyflow
// (the analyzer that owns directive validation) and asserts the three
// directive behaviours programmatically: a justified allow suppresses and
// is counted, an empty-reason allow is reported and does NOT suppress, and
// a lookalike comment (//itslint:allowance) is not a directive at all.
func TestDirectiveMachinery(t *testing.T) {
	res := atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/internal/storage")
	diags := res.Diagnostics

	var emptyReason, mapRange int
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "without a reason"):
			emptyReason++
		case strings.Contains(d.Message, "range over map"):
			mapRange++
		default:
			t.Errorf("unexpected diagnostic: %s", d.Message)
		}
	}
	if emptyReason != 1 {
		t.Errorf("empty-reason directives reported = %d, want 1", emptyReason)
	}
	// Two map ranges must still be reported: the one under the empty-reason
	// directive (no justification, no suppression) and the one beside the
	// //itslint:allowance lookalike. The justified one must not be.
	if mapRange != 2 {
		t.Errorf("map-range findings reported = %d, want 2", mapRange)
	}

	// The justified suppression must be counted, not reported.
	if per, total := res.PerAnalyzer(); total != 1 || per["entropyflow"] != 1 {
		t.Errorf("suppressions = %v (total %d), want entropyflow=1", per, total)
	}
}

func TestDeterministic(t *testing.T) {
	for path, want := range map[string]bool{
		"itsim/internal/exec":     true,
		"itsim/internal/metrics":  true,
		"itsim/internal/core":     false,
		"itsim/cmd/itsbench":      false,
		"itsim/internal/analysis": false,
	} {
		if got := itslint.Deterministic(path); got != want {
			t.Errorf("Deterministic(%q) = %v, want %v", path, got, want)
		}
	}
}

// suppressions runs entropyflow and schemafreeze over the fixture roots
// and returns the driver's per-(analyzer, package) suppression counts.
func suppressions(t *testing.T, roots ...string) map[driver.Key]int {
	t.Helper()
	res, err := driver.RunGOPATH("../testdata", []*analysis.Analyzer{entropyflow.Analyzer, schemafreeze.Analyzer}, roots...)
	if err != nil {
		t.Fatal(err)
	}
	return res.Suppressed
}

// TestParseSummary checks the driver's per-(analyzer, package) suppression
// counting: obs is a root and also a dependency of chaos and replay, and
// its one justified switch still counts once.
func TestParseSummary(t *testing.T) {
	got := suppressions(t, "itsim/internal/chaos", "itsim/internal/obs", "itsim/internal/replay")
	want := map[driver.Key]int{
		{Analyzer: "entropyflow", Package: "itsim/internal/chaos"}:   1,
		{Analyzer: "schemafreeze", Package: "itsim/internal/obs"}:    1,
		{Analyzer: "schemafreeze", Package: "itsim/internal/replay"}: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suppressions = %v, want %v", got, want)
	}
	res := &driver.Result{Suppressed: got}
	if per, total := res.PerAnalyzer(); total != 3 || per["entropyflow"] != 1 || per["schemafreeze"] != 2 {
		t.Errorf("PerAnalyzer = %v (total %d), want entropyflow=1 schemafreeze=2", per, total)
	}
}

func TestFormatSummary(t *testing.T) {
	if got := itslint.FormatSummary(map[string]int{}, 0); !strings.Contains(got, "clean") {
		t.Errorf("empty summary = %q, want a clean message", got)
	}
	got := itslint.FormatSummary(map[string]int{"entropyflow": 2, "gospawn": 1}, 3)
	want := "itslint: 3 findings suppressed by //itslint:allow (entropyflow=2, gospawn=1)"
	if got != want {
		t.Errorf("FormatSummary = %q, want %q", got, want)
	}
	if got := itslint.FormatSummary(map[string]int{"vtime": 1}, 1); !strings.Contains(got, "1 finding suppressed") {
		t.Errorf("singular form = %q, want %q", got, "1 finding suppressed")
	}
}

// TestAppendSummary checks that only the named packages count: obs and
// the order→wrap helper chain are dependencies of the roots here, so
// obs's justified switch is not counted, while chaos's allow is.
func TestAppendSummary(t *testing.T) {
	got := suppressions(t, "itsim/internal/chaos", "itsim/internal/replay")
	want := map[driver.Key]int{
		{Analyzer: "entropyflow", Package: "itsim/internal/chaos"}:   1,
		{Analyzer: "schemafreeze", Package: "itsim/internal/replay"}: 1,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("suppressions = %v, want %v", got, want)
	}
}
