package metrics

import (
	"strings"
	"testing"
)

func multiCoreSummary() *Summary {
	return &Summary{
		MakespanNs: 400,
		Cores: []*Core{
			{ID: 0, LocalClock: 400, CPUTime: 290, SchedulerIdle: 90, ContextSwitchTime: 20},
			{ID: 1, LocalClock: 300, CPUTime: 250, SchedulerIdle: 50},
		},
	}
}

func TestCheckAttributionMultiCore(t *testing.T) {
	s := multiCoreSummary()
	good := []CoreAttribution{
		{Core: 0, CPUTime: 290, SchedulerIdle: 90, ContextSwitchTime: 20},
		{Core: 1, CPUTime: 250, SchedulerIdle: 50},
	}
	if err := s.CheckAttribution(good); err != nil {
		t.Fatal(err)
	}

	bad := append([]CoreAttribution(nil), good...)
	bad[0].CPUTime++
	if err := s.CheckAttribution(bad); err == nil || !strings.Contains(err.Error(), "core 0") {
		t.Fatalf("1ns CPU drift not caught: %v", err)
	}

	if err := s.CheckAttribution([]CoreAttribution{good[0], {Core: 7}}); err == nil ||
		!strings.Contains(err.Error(), "no such core") {
		t.Fatalf("unknown core accepted: %v", err)
	}
}

func TestCheckAttributionParkedCore(t *testing.T) {
	// A core with zero ledger time may legitimately have no attribution
	// entry (it parked before emitting a single event)...
	s := multiCoreSummary()
	s.Cores = append(s.Cores, &Core{ID: 2})
	atts := []CoreAttribution{
		{Core: 0, CPUTime: 290, SchedulerIdle: 90, ContextSwitchTime: 20},
		{Core: 1, CPUTime: 250, SchedulerIdle: 50},
	}
	if err := s.CheckAttribution(atts); err != nil {
		t.Fatal(err)
	}
	// ...but a core with ledger time and no events is a filtered trace.
	s.Cores[2].SchedulerIdle = 5
	if err := s.CheckAttribution(atts); err == nil || !strings.Contains(err.Error(), "no attributed events") {
		t.Fatalf("uncovered ledger time accepted: %v", err)
	}
}

// A one-core summary carries a one-entry per-core section and reconciles
// like any other; a summary without that section (written before one-core
// runs kept a per-core ledger) is refused with a pointer to regenerate it.
func TestCheckAttributionSingleCore(t *testing.T) {
	s := &Summary{
		MakespanNs:      400,
		SchedulerIdleNs: 90,
		Cores:           []*Core{{ID: 0, LocalClock: 400, CPUTime: 290, SchedulerIdle: 90, ContextSwitchTime: 20}},
	}
	good := []CoreAttribution{{Core: 0, CPUTime: 290, SchedulerIdle: 90, ContextSwitchTime: 20}}
	if err := s.CheckAttribution(good); err != nil {
		t.Fatal(err)
	}
	bad := []CoreAttribution{{Core: 0, CPUTime: 291, SchedulerIdle: 90, ContextSwitchTime: 20}}
	if err := s.CheckAttribution(bad); err == nil || !strings.Contains(err.Error(), "core 0") {
		t.Fatalf("CPU drift not caught: %v", err)
	}
	s.Cores = nil
	if err := s.CheckAttribution(good); err == nil || !strings.Contains(err.Error(), "regenerate") {
		t.Fatalf("summary without a per-core section accepted: %v", err)
	}
}
