package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itsim/internal/core"
)

// tiny returns the params for a minimal-scale harness run of exp, with
// overrides applied by the caller.
func tiny(exp string) params {
	return params{exp: exp, scale: 0.01, format: "text", RunFlags: core.RunFlags{TraceFormat: "chrome"}}
}

// The harness is exercised end-to-end at a tiny scale: every experiment and
// format must render without error (outputs go to stdout; correctness of
// the numbers is covered by internal/core's tests).
func TestRunAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	for _, exp := range []string{"setup", "obs", "fig4a", "fig4b", "fig4c", "fig5a", "fig5b", "xover", "spin", "ablate"} {
		if _, err := run(io.Discard, tiny(exp)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

func TestRunFormats(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	for _, format := range []string{"csv", "chart", "json"} {
		p := tiny("fig4a")
		p.format = format
		if _, err := run(io.Discard, p); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func TestRunMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	p := tiny("fig4a")
	p.Cores = 2
	if _, err := run(io.Discard, p); err != nil {
		t.Fatal(err)
	}
}

// A degraded-device run: faults, demotion budget and prefetch throttle all
// enabled must still render every figure.
func TestRunWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	p := tiny("fig4a")
	p.Faults = "seed=7,tailp=0.05,tailx=8,stallp=0.01,dmap=0.02"
	p.SpinBudget = 3 * time.Microsecond
	p.PrefetchThrottle = 0.5
	if _, err := run(io.Discard, p); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknown(t *testing.T) {
	if _, err := run(io.Discard, tiny("nope")); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	p := tiny("fig4a")
	p.format = "nope"
	if _, err := run(io.Discard, p); err == nil {
		t.Fatal("unknown format accepted")
	}
	p = tiny("fig4a")
	p.TraceOut, p.TraceFormat = "x.json", "nope"
	if _, err := run(io.Discard, p); err == nil {
		t.Fatal("unknown trace format accepted")
	}
	p = tiny("fig4a")
	p.Faults = "tailp=nope"
	if _, err := run(io.Discard, p); err == nil {
		t.Fatal("bad fault spec accepted")
	}
	p = tiny("fig4a")
	p.SpinBudget = -time.Microsecond
	if _, err := run(io.Discard, p); err == nil {
		t.Fatal("negative spin budget accepted")
	}
	p = tiny("fig4a")
	p.PrefetchThrottle = 1.5
	if _, err := run(io.Discard, p); err == nil {
		t.Fatal("out-of-range prefetch throttle accepted")
	}
}

// A traced multi-run experiment must produce a single well-formed Chrome
// trace file covering every run.
func TestRunWithTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("harness run in -short mode")
	}
	p := tiny("fig4a")
	p.TraceOut = filepath.Join(t.TempDir(), "trace.json")
	p.GaugeInterval = 50 * time.Microsecond
	if _, err := run(io.Discard, p); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(p.TraceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not valid Chrome JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}
