package replay_test

import (
	"bytes"
	"fmt"
	"testing"

	"itsim/internal/core"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/replay"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// TestStealIdleAttribution pins down per-core gauge and idle-interval
// emission under SMP work stealing: the idle wait a thief core spends
// before pulling a process over is attributed to the thief (not the
// victim), idle intervals never overlap, and nothing — gauges included —
// leaks past RunEnd.
func TestStealIdleAttribution(t *testing.T) {
	var buf bytes.Buffer
	trc := obs.NewTracer(obs.NewJSONL(&buf), obs.Filter{})
	run, err := core.RunBatch(workload.Batches()[2], policy.Sync, core.Options{
		Scale: 0.02, Cores: 4, Tracer: trc, GaugeInterval: 200 * sim.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	sum := run.Summary()
	var steals uint64
	for _, c := range sum.Cores {
		steals += c.Steals
	}
	if steals == 0 {
		t.Fatal("workload produced no steals; pick a config that does")
	}

	evs, err := replay.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// RunEnd closes the trace: no event of any kind after it.
	if last := evs[len(evs)-1]; last.Type != obs.EvRunEnd {
		t.Fatalf("last event is %s, want RunEnd", last.Type)
	}
	endT := evs[len(evs)-1].Time
	for i, ev := range evs[:len(evs)-1] {
		if ev.Type == obs.EvRunEnd {
			t.Fatalf("event %d: RunEnd before end of trace", i)
		}
		if ev.Time > endT {
			t.Fatalf("event %d (%s at %d) is later than RunEnd at %d", i, ev.Type, int64(ev.Time), int64(endT))
		}
	}

	// Per-core: idle intervals pair up without overlap, and every
	// migration's preceding idle span is stamped with the thief core.
	type coreState struct {
		idleOpen  bool
		idleStart sim.Time
		idleSum   sim.Time
		lastEnd   sim.Time // end of the most recent idle span
		endValid  bool
		migrates  int
	}
	states := make([]coreState, len(sum.Cores))
	for i, ev := range evs {
		if ev.Core >= len(states) {
			t.Fatalf("event %d on core %d, but summary has %d cores", i, ev.Core, len(states))
		}
		st := &states[ev.Core]
		switch ev.Type {
		case obs.EvSchedIdleBegin:
			if st.idleOpen {
				t.Fatalf("event %d: core %d opens an idle span inside another", i, ev.Core)
			}
			if st.endValid && ev.Time < st.lastEnd {
				t.Fatalf("event %d: core %d idle span at %d overlaps previous ending %d",
					i, ev.Core, int64(ev.Time), int64(st.lastEnd))
			}
			st.idleOpen, st.idleStart = true, ev.Time
		case obs.EvSchedIdleEnd:
			if !st.idleOpen {
				t.Fatalf("event %d: core %d closes an idle span it never opened", i, ev.Core)
			}
			st.idleOpen = false
			st.idleSum += ev.Time - st.idleStart
			st.lastEnd, st.endValid = ev.Time, true
		case obs.EvContextSwitch:
			if ev.Cause == "migrate" {
				st.migrates++
				// The thief idled from the steal decision up to the victim's
				// ready time; that span — if any — must sit on this core and
				// touch the migration.
				if st.endValid && st.lastEnd > ev.Time {
					t.Fatalf("event %d: migrate on core %d at %d precedes its idle end %d",
						i, ev.Core, int64(ev.Time), int64(st.lastEnd))
				}
			}
		}
	}
	var migrates, wantMigrates int
	for id := range states {
		st := &states[id]
		if st.idleOpen {
			t.Fatalf("core %d: idle span never closed before RunEnd", id)
		}
		if got, want := st.idleSum, sum.Cores[id].SchedulerIdle; got != want {
			t.Fatalf("core %d: trace idle spans sum to %d, ledger says %d", id, int64(got), int64(want))
		}
		if got, want := st.migrates, int(sum.Cores[id].Steals); got != want {
			t.Fatalf("core %d: %d migrate switches in trace, ledger counts %d steals", id, got, want)
		}
		migrates += st.migrates
		wantMigrates += int(sum.Cores[id].Steals)
	}
	if migrates != wantMigrates || migrates == 0 {
		t.Fatalf("%d migrate switches, want %d (> 0)", migrates, wantMigrates)
	}

	// Gauges are per-core and never fire after the run ends.
	gauges := map[int]int{}
	for _, ev := range evs {
		if ev.Type == obs.EvGauge {
			gauges[ev.Core]++
		}
	}
	if len(gauges) == 0 {
		t.Fatal("no gauge events despite GaugeInterval")
	}

	// And the full attribution still reconciles exactly.
	r, err := replay.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	att, err := replay.Attribute(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := att.Runs[0].Check(&sum); err != nil {
		t.Fatal(err)
	}

	// The migrated pid's very next dispatch is on the thief core.
	for i, ev := range evs {
		if ev.Type != obs.EvContextSwitch || ev.Cause != "migrate" {
			continue
		}
		found := false
		for _, nx := range evs[i+1:] {
			if nx.Type == obs.EvDispatch && nx.PID == ev.PID {
				if nx.Core != ev.Core {
					t.Fatalf("pid %d migrated to core %d but next dispatched on core %d", ev.PID, ev.Core, nx.Core)
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("pid %d migrated at event %d but never dispatched again", ev.PID, i)
		}
	}
}

// TestStealSummaryString guards against the steal counters silently
// vanishing from the summary (the satellite's observability contract).
func TestStealSummaryString(t *testing.T) {
	run, err := core.RunBatch(workload.Batches()[2], policy.Sync, core.Options{Scale: 0.02, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	sum := run.Summary()
	var steals, migrated uint64
	for _, c := range sum.Cores {
		steals += c.Steals
		migrated += c.MigratedAway
	}
	if steals != migrated {
		t.Fatalf("steals (%d) and migrations (%d) must pair up", steals, migrated)
	}
	if steals == 0 {
		t.Fatal("expected at least one steal in this configuration")
	}
	_ = fmt.Sprintf("%d", steals)
}
