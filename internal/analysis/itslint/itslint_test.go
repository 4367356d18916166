package itslint_test

import (
	"reflect"
	"sort"
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

// TestDeterministic derives the set on this module: a probe analyzer run
// over every package records what the driver answers through
// itslint.Deterministic, which must be exactly the in-module import
// closure of smp, cluster and replay.
func TestDeterministic(t *testing.T) {
	det := make(map[string]bool)
	probe := &analysis.Analyzer{
		Name: "probe",
		Doc:  "records itslint.Deterministic for every package",
		Run: func(pass *analysis.Pass) (any, error) {
			det[pass.Pkg.Path()] = itslint.Deterministic(pass)
			return nil, nil
		},
	}
	if _, err := driver.Run([]*analysis.Analyzer{probe}, "itsim/..."); err != nil {
		t.Fatal(err)
	}
	var got []string
	for path, in := range det {
		if in {
			got = append(got, strings.TrimPrefix(path, "itsim/internal/"))
		}
	}
	sort.Strings(got)
	want := []string{"bus", "cache", "chaos", "cluster", "cpu", "exec", "fault", "kernel", "machine", "mem",
		"metrics", "obs", "pagetable", "policy", "preexec", "prefetch", "prng", "replay", "sched", "sim", "smp",
		"storage", "trace", "workload"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deterministic set = %v\nwant %v", got, want)
	}
	// Equality keeps every other package out; these must also have been
	// analyzed, so their absence is not vacuous.
	for _, path := range []string{"itsim/internal/core", "itsim/internal/report", "itsim/internal/workload/algo",
		"itsim/internal/analysis/driver", "itsim/internal/analysis/entropyflow", "itsim/cmd/itslint", "itsim/cmd/itssim"} {
		if in, analyzed := det[path]; !analyzed || in {
			t.Errorf("%s: analyzed %v, deterministic %v; want analyzed and outside the set", path, analyzed, in)
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
// counting: obs is a root and also a dependency of replay, and its one
// justified switch still counts once.
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
