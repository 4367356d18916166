package itslint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/entropyflow"
	"itsim/internal/analysis/itslint"
)

// TestDirectiveMachinery drives the storage fixture through entropyflow
// (the analyzer that owns directive validation) and asserts the three
// directive behaviours programmatically: a justified allow suppresses and
// is counted, an empty-reason allow is reported and does NOT suppress, and
// a lookalike comment (//itslint:allowance) is not a directive at all.
func TestDirectiveMachinery(t *testing.T) {
	summary := filepath.Join(t.TempDir(), "summary")
	t.Setenv(itslint.SummaryEnv, summary)

	diags := atest.RunResult(t, "../testdata", entropyflow.Analyzer, "itsim/internal/storage")

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

	// The justified suppression must be counted in the summary side channel.
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatalf("summary file not written: %v", err)
	}
	per, total := itslint.ParseSummary(data)
	if total != 1 || per["entropyflow"] != 1 {
		t.Errorf("ParseSummary = %v (total %d), want entropyflow=1", per, total)
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

func TestParseSummary(t *testing.T) {
	data := []byte(strings.Join([]string{
		"entropyflow\titsim/internal/sched\t3",
		"gospawn\titsim/internal/core\t1",
		"entropyflow\titsim/internal/obs\t2",
		// A second visit to one package (vet's facts-only pass) counts once.
		"entropyflow\titsim/internal/sched\t3",
		"truncated line without tabs",
		"vtime\titsim/internal/exec\tnot-a-number",
		"vtime\titsim/internal/exec\t-4",
		"",
	}, "\n"))
	per, total := itslint.ParseSummary(data)
	if total != 6 {
		t.Errorf("total = %d, want 6", total)
	}
	if per["entropyflow"] != 5 || per["gospawn"] != 1 || per["vtime"] != 0 {
		t.Errorf("per-analyzer = %v, want entropyflow=5 gospawn=1", per)
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

// TestAppendSummary checks the side-channel file protocol the vet worker
// processes use: appends accumulate, and an unset env means no-op.
func TestAppendSummary(t *testing.T) {
	summary := filepath.Join(t.TempDir(), "summary")
	t.Setenv(itslint.SummaryEnv, summary)
	itslint.AppendSummary("gospawn", "itsim/internal/core", 1)
	itslint.AppendSummary("entropyflow", "itsim/internal/sched", 3)
	itslint.AppendSummary("entropyflow", "itsim/internal/obs", 0) // zero: dropped
	data, err := os.ReadFile(summary)
	if err != nil {
		t.Fatalf("summary file not written: %v", err)
	}
	per, total := itslint.ParseSummary(data)
	if total != 4 || per["gospawn"] != 1 || per["entropyflow"] != 3 {
		t.Errorf("round-trip = %v (total %d), want gospawn=1 entropyflow=3", per, total)
	}

	t.Setenv(itslint.SummaryEnv, "")
	itslint.AppendSummary("vtime", "itsim/internal/exec", 7)
	data, _ = os.ReadFile(summary)
	if _, total := itslint.ParseSummary(data); total != 4 {
		t.Errorf("append with unset env changed the file: total = %d, want 4", total)
	}
}
