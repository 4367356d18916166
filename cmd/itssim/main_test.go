package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"itsim/internal/core"
)

// p returns default CLI params overridden by fn.
func p(fn func(*params)) params {
	pp := params{
		batch:    "1_Data_Intensive",
		policy:   "ITS",
		scale:    0.01,
		format:   "text",
		RunFlags: core.RunFlags{TraceFormat: "chrome"},
	}
	if fn != nil {
		fn(&pp)
	}
	return pp
}

func TestRunCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run in -short mode")
	}
	if err := run(p(func(pp *params) { pp.verbose = true })); err != nil {
		t.Fatal(err)
	}
	if err := run(p(func(pp *params) {
		pp.batch = "No_Data_Intensive"
		pp.policy = "Sync"
		pp.dramRatio = 0.8
	})); err != nil {
		t.Fatal(err)
	}
}

func TestRunCLIJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run in -short mode")
	}
	if err := run(p(func(pp *params) { pp.format = "json" })); err != nil {
		t.Fatal(err)
	}
}

func TestRunCLIMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run in -short mode")
	}
	if err := run(p(func(pp *params) {
		pp.Cores = 4
		pp.verbose = true
	})); err != nil {
		t.Fatal(err)
	}
	if err := run(p(func(pp *params) { pp.Cores = -1 })); err == nil {
		t.Fatal("negative core count accepted")
	}
}

func TestRunCLITrace(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI run in -short mode")
	}
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	if err := run(p(func(pp *params) {
		pp.TraceOut = chrome
		pp.GaugeInterval = 50 * time.Microsecond
	})); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(chrome)
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

	jsonl := filepath.Join(dir, "trace.jsonl")
	if err := run(p(func(pp *params) {
		pp.TraceOut = jsonl
		pp.TraceFormat = "jsonl"
		pp.TraceFilter = "MajorFaultBegin,MajorFaultEnd"
	})); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(jsonl); err != nil || st.Size() == 0 {
		t.Fatalf("jsonl trace missing or empty: %v", err)
	}
}

func TestRunCLIRejectsUnknown(t *testing.T) {
	if err := run(p(func(pp *params) { pp.batch = "nope" })); err == nil {
		t.Fatal("unknown batch accepted")
	}
	if err := run(p(func(pp *params) { pp.policy = "nope" })); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := run(p(func(pp *params) { pp.format = "nope" })); err == nil {
		t.Fatal("unknown format accepted")
	}
	if err := run(p(func(pp *params) {
		pp.TraceOut = "x.json"
		pp.TraceFormat = "nope"
	})); err == nil {
		t.Fatal("unknown trace format accepted")
	}
}
