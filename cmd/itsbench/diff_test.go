package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"itsim/internal/metrics"
)

func writeDoc(t *testing.T, dir, name string, doc *jsonDoc) string {
	t.Helper()
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func testDoc() *jsonDoc {
	return &jsonDoc{
		Scale: 0.25,
		Setup: map[string]string{"Context switch": "7.000µs"},
		Figures: map[string]map[string]map[string]float64{
			"fig4a": {"1_Data_Intensive": {"ITS": 1.0, "Sync": 1.8}},
		},
		Runs: []metrics.Summary{{
			Policy:      "ITS",
			Batch:       "1_Data_Intensive",
			MakespanNs:  1_000_000,
			MajorFaults: 420,
		}},
	}
}

func TestDiffIdenticalDocs(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", testDoc())
	b := writeDoc(t, dir, "b.json", testDoc())
	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 0 {
		t.Fatalf("identical docs: exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no drift") {
		t.Errorf("missing no-drift confirmation: %q", out.String())
	}
}

func TestDiffDetectsDrift(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", testDoc())
	changed := testDoc()
	changed.Setup["Context switch"] = "8.000µs"
	changed.Figures["fig4a"]["1_Data_Intensive"]["Sync"] = 2.0
	changed.Runs[0].MakespanNs = 1_100_000
	b := writeDoc(t, dir, "b.json", changed)

	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 1 {
		t.Fatalf("drifted docs: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"setup.Context switch: 7.000µs -> 8.000µs",
		"figures.fig4a.1_Data_Intensive.Sync: 1.8 -> 2 (+11.1%)",
		"runs[0].makespan_ns: 1000000 -> 1100000 (+10%)",
		"3 metrics drifted",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestDiffTolerance: diff compares at zero tolerance with no way to loosen
// it — -tolerance is a usage error, and a 1 % drift is reported.
func TestDiffTolerance(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", testDoc())
	changed := testDoc()
	changed.Runs[0].MakespanNs = 1_010_000 // +1 %
	b := writeDoc(t, dir, "b.json", changed)

	var out bytes.Buffer
	if code := diffMain([]string{"-tolerance", "0.05", a, b}, &out); code != 2 {
		t.Fatalf("-tolerance: exit %d, want 2 (usage error); output:\n%s", code, out.String())
	}
	out.Reset()
	if code := diffMain([]string{a, b}, &out); code != 1 || !strings.Contains(out.String(), "runs[0].makespan_ns") {
		t.Fatalf("1%% drift: exit %d, want 1 naming the drifted metric; output:\n%s", code, out.String())
	}
}

func TestDiffMissingAndExtraEntries(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", testDoc())
	changed := testDoc()
	changed.Figures["fig5a"] = map[string]map[string]float64{"x": {"ITS": 1}}
	changed.Runs = nil
	b := writeDoc(t, dir, "b.json", changed)

	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 1 {
		t.Fatalf("structural differences: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"figures.fig5a: only in new document",
		"runs: missing from new document",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// A batch or policy that exists only in the NEW document must register as
// drift too — presence checks are symmetric at every nesting level, not just
// for whole figures.
func TestDiffExtraInnerEntriesAreDrift(t *testing.T) {
	dir := t.TempDir()
	a := writeDoc(t, dir, "a.json", testDoc())
	changed := testDoc()
	changed.Figures["fig4a"]["2_Data_Intensive"] = map[string]float64{"ITS": 1}
	changed.Figures["fig4a"]["1_Data_Intensive"]["Async"] = 2.5
	changed.Runs = append(changed.Runs, metrics.Summary{
		Policy: "Async", Batch: "1_Data_Intensive", MakespanNs: 2_000_000,
	})
	b := writeDoc(t, dir, "b.json", changed)

	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 1 {
		t.Fatalf("new-only entries: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"figures.fig4a.2_Data_Intensive: only in new document",
		"figures.fig4a.1_Data_Intensive.Async: only in new document",
		"runs[1]: only in new document",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// The fault-injection summary section participates in the comparison: a
// drifted counter and a section present in only one document both fail.
func TestDiffFaultInjectionFields(t *testing.T) {
	dir := t.TempDir()
	base := testDoc()
	base.Runs[0].DemotedWaits = 3
	base.Runs[0].Injection = &metrics.InjectionStats{TailSpikes: 10, DMAFailures: 2, DMARetries: 2}
	a := writeDoc(t, dir, "a.json", base)

	changed := testDoc()
	changed.Runs[0].DemotedWaits = 4
	changed.Runs[0].Injection = &metrics.InjectionStats{TailSpikes: 11, DMAFailures: 2, DMARetries: 2}
	b := writeDoc(t, dir, "b.json", changed)

	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 1 {
		t.Fatalf("fault drift: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"runs[0].demoted_waits",
		"runs[0].fault_injection.tail_spikes",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// Section appearing only on one side is structural drift, not a skip.
	noInj := testDoc()
	c := writeDoc(t, dir, "c.json", noInj)
	out.Reset()
	if code := diffMain([]string{a, c}, &out); code != 1 {
		t.Fatalf("injection section removed: exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "runs[0].fault_injection: missing from new document") {
		t.Errorf("output missing one-sided injection drift:\n%s", out.String())
	}
}

// fleetDoc builds a document with one fleet sweep entry, optionally
// carrying chaos stats.
func fleetDoc(withChaos bool) *jsonDoc {
	s := metrics.FleetSummary{
		Policy:     "ITS",
		Routing:    "health",
		Machines:   3,
		MakespanNs: 2_000_000,
		Requests:   10,
		Completed:  9,
		Tenants: []metrics.TenantStats{{
			Name: "web", Requests: 10, Completed: 9,
			SLOAttainment: 0.9, TimedOut: 2, Retries: 1, Failed: 1,
		}},
	}
	if withChaos {
		s.Chaos = &metrics.ChaosStats{Crashes: 3, Rehomed: 5, Timeouts: 2, Retries: 1, Failed: 1}
	}
	return &jsonDoc{Scale: 0.25, Fleet: []metrics.FleetSummary{s}}
}

func TestDiffFleetSection(t *testing.T) {
	dir := t.TempDir()

	// Identical fleet docs: clean.
	a := writeDoc(t, dir, "a.json", fleetDoc(true))
	b := writeDoc(t, dir, "b.json", fleetDoc(true))
	var out bytes.Buffer
	if code := diffMain([]string{a, b}, &out); code != 0 {
		t.Fatalf("identical fleet docs: exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "no drift") {
		t.Errorf("missing no-drift confirmation: %q", out.String())
	}

	// Drifted resilience counters register per metric.
	changed := fleetDoc(true)
	changed.Fleet[0].Tenants[0].TimedOut = 5
	changed.Fleet[0].Chaos.Crashes = 7
	c := writeDoc(t, dir, "c.json", changed)
	out.Reset()
	if code := diffMain([]string{a, c}, &out); code != 1 {
		t.Fatalf("drifted fleet docs: exit %d, want 1; output:\n%s", code, out.String())
	}
	for _, want := range []string{
		"fleet[0].tenants[0].timed_out",
		"fleet[0].chaos.crashes",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// A chaos block appearing on one side only is drift in either
	// direction — the zero-chaos byte-inertness gate's comparator.
	plain := writeDoc(t, dir, "plain.json", fleetDoc(false))
	for _, pair := range [][3]string{
		{plain, a, "fleet[0].chaos: only in new document"},
		{a, plain, "fleet[0].chaos: missing from new document"},
	} {
		out.Reset()
		if code := diffMain([]string{pair[0], pair[1]}, &out); code != 1 {
			t.Fatalf("chaos-block asymmetry: exit %d, want 1; output:\n%s", code, out.String())
		}
		if !strings.Contains(out.String(), pair[2]) {
			t.Errorf("asymmetric chaos block not reported as %q:\n%s", pair[2], out.String())
		}
	}
}

func TestDiffUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := diffMain([]string{"only-one.json"}, &out); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	if code := diffMain([]string{"/nonexistent/a.json", "/nonexistent/b.json"}, &out); code != 2 {
		t.Errorf("unreadable files: exit %d, want 2", code)
	}
}

// TestDiffSchemaVersion: mismatched schema versions are a layout change,
// not drift — exit 3 before any counter comparison. An unversioned
// (pre-versioning) document is version 0 and compares only with another
// unversioned one.
func TestDiffSchemaVersion(t *testing.T) {
	dir := t.TempDir()
	docAt := func(v int) *jsonDoc {
		d := testDoc()
		d.SchemaVersion = v
		return d
	}
	cases := []struct {
		name     string
		oldV     int
		newV     int
		wantCode int
	}{
		{"both current", docSchemaVersion, docSchemaVersion, 0},
		{"mismatched nonzero", 1, 2, 3},
		{"mismatched nonzero reversed", 2, 1, 3},
		{"old unversioned", 0, docSchemaVersion, 3},
		{"new unversioned", docSchemaVersion, 0, 3},
		{"both unversioned", 0, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := writeDoc(t, dir, "old.json", docAt(tc.oldV))
			b := writeDoc(t, dir, "new.json", docAt(tc.newV))
			var out bytes.Buffer
			if code := diffMain([]string{a, b}, &out); code != tc.wantCode {
				t.Fatalf("exit %d, want %d; output:\n%s", code, tc.wantCode, out.String())
			}
			if tc.wantCode == 3 && strings.Contains(out.String(), "drifted") {
				t.Errorf("version mismatch reported as drift:\n%s", out.String())
			}
		})
	}
}
