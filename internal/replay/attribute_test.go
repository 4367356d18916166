package replay

import (
	"bytes"
	"strings"
	"testing"

	"itsim/internal/obs"
	"itsim/internal/sim"
)

// goodTrace is a fully-accounted single-core run with one synchronous fault
// window (partially stolen by walk/pre-execute/recovery) and one async
// fault end landing inside an idle span.
func goodTrace() []obs.Event {
	return []obs.Event{
		{Time: 0, Type: obs.EvRunBegin, PID: -1, Cause: "ITS/test"},
		{Time: 0, Type: obs.EvDispatch, PID: 0, Cause: "wrf"},
		{Time: 10, Type: obs.EvMajorFaultBegin, PID: 0, VA: 0x1000},
		{Time: 20, Type: obs.EvPrefetchWalk, PID: 0, Dur: 5, Value: 3},
		{Time: 40, Type: obs.EvPreexecWindow, PID: 0, Dur: 15, Value: 30},
		{Time: 45, Type: obs.EvRecovery, PID: 0, Dur: 5, Cause: "interrupt"},
		{Time: 50, Type: obs.EvMajorFaultEnd, PID: 0, VA: 0x1000, Dur: 40, Cause: "sync"},
		{Time: 100, Type: obs.EvProcFinish, PID: 0, Dur: 100},
		{Time: 110, Type: obs.EvContextSwitch, PID: 1, Dur: 10},
		{Time: 110, Type: obs.EvDispatch, PID: 1, Cause: "gups"},
		{Time: 150, Type: obs.EvMajorFaultBegin, PID: 1, VA: 0x9000},
		{Time: 200, Type: obs.EvBlock, PID: 1, VA: 0x9000, Dur: 90},
		{Time: 210, Type: obs.EvContextSwitch, PID: 0, Dur: 10},
		{Time: 210, Type: obs.EvSchedIdleBegin, PID: -1},
		{Time: 250, Type: obs.EvMajorFaultEnd, PID: 1, VA: 0x9000, Dur: 100, Cause: "async"},
		{Time: 300, Type: obs.EvSchedIdleEnd, PID: -1},
		{Time: 300, Type: obs.EvDispatch, PID: 1, Cause: "gups"},
		{Time: 400, Type: obs.EvProcFinish, PID: 1, Dur: 100},
		{Time: 400, Type: obs.EvRunEnd, PID: -1},
	}
}

// attributeEvents folds a handcrafted stream through the real wire format.
func attributeEvents(t *testing.T, evs ...obs.Event) (*Attribution, error) {
	t.Helper()
	r, err := NewReader(bytes.NewReader(encode(t, evs...)))
	if err != nil {
		t.Fatal(err)
	}
	return Attribute(r)
}

func TestAttributeGoodRun(t *testing.T) {
	att, err := attributeEvents(t, goodTrace()...)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(att.Runs))
	}
	run := att.Runs[0]
	if run.Label != "ITS/test" || run.Makespan != 400 {
		t.Fatalf("bad run header: %+v", run)
	}
	if len(run.Cores) != 1 {
		t.Fatalf("got %d cores, want 1", len(run.Cores))
	}
	c := run.Cores[0]
	if c.CPUTime != 290 || c.ContextSwitchTime != 20 || c.SchedulerIdle != 90 {
		t.Fatalf("core fold (cpu %v, switch %v, idle %v), want (290, 20, 90)", c.CPUTime, c.ContextSwitchTime, c.SchedulerIdle)
	}
	if c.Total() != run.Makespan {
		t.Fatalf("core total %v != makespan %v", c.Total(), run.Makespan)
	}
	if len(c.Procs) != 2 {
		t.Fatalf("got %d procs, want 2", len(c.Procs))
	}
	p0, p1 := c.Procs[0], c.Procs[1]
	if p0.PID != 0 || p0.Name != "wrf" || p0.CPUTime != 100 || p0.Execute != 60 ||
		p0.FaultWait != 15 || p0.PrefetchWalk != 5 || p0.Preexec != 15 || p0.Recovery != 5 ||
		p0.SyncFaults != 1 || p0.Dispatches != 1 {
		t.Fatalf("pid 0 fold wrong: %+v", p0)
	}
	if sum := p0.Execute + p0.FaultWait + p0.PrefetchWalk + p0.Preexec + p0.Recovery; sum != p0.CPUTime {
		t.Fatalf("pid 0 categories sum to %v, CPU time is %v", sum, p0.CPUTime)
	}
	if p1.PID != 1 || p1.Name != "gups" || p1.CPUTime != 190 || p1.Execute != 190 ||
		p1.SyncFaults != 0 || p1.Dispatches != 2 {
		t.Fatalf("pid 1 fold wrong: %+v", p1)
	}
	if run.Count(obs.EvMajorFaultBegin) != 2 || run.Count(obs.EvMajorFaultEnd) != 2 {
		t.Fatalf("bad event counts: %d begins, %d ends",
			run.Count(obs.EvMajorFaultBegin), run.Count(obs.EvMajorFaultEnd))
	}
}

func TestAttributeMultiRun(t *testing.T) {
	evs := append(goodTrace(), goodTrace()...)
	evs[len(goodTrace())].Cause = "Sync/test"
	att, err := attributeEvents(t, evs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(att.Runs))
	}
	if att.Runs[0].Label != "ITS/test" || att.Runs[1].Label != "Sync/test" {
		t.Fatalf("bad labels: %q, %q", att.Runs[0].Label, att.Runs[1].Label)
	}
	if att.Runs[1].Cores[0].CPUTime != 290 {
		t.Fatalf("second run fold wrong: %+v", att.Runs[1].Cores[0])
	}
}

// mutateTrace runs goodTrace with one transformation and asserts the fold
// rejects it with a message containing want.
func mutateTrace(t *testing.T, want string, fn func(evs []obs.Event) []obs.Event) {
	t.Helper()
	_, err := attributeEvents(t, fn(goodTrace())...)
	if err == nil {
		t.Fatalf("malformed trace accepted (wanted %q)", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

func TestAttributeCatchesUnclosedRun(t *testing.T) {
	mutateTrace(t, "no EvRunEnd", func(evs []obs.Event) []obs.Event {
		return evs[:len(evs)-1]
	})
}

func TestAttributeCatchesEventAfterRunEnd(t *testing.T) {
	mutateTrace(t, "outside any run", func(evs []obs.Event) []obs.Event {
		return append(evs, obs.Event{Time: 500, Type: obs.EvGauge, PID: -1, Cause: "llc_lines"})
	})
}

func TestAttributeCatchesOccupancyMismatch(t *testing.T) {
	mutateTrace(t, "occupancy mismatch", func(evs []obs.Event) []obs.Event {
		for i := range evs {
			if evs[i].Type == obs.EvProcFinish && evs[i].Time == 100 {
				evs[i].Dur = 99
			}
		}
		return evs
	})
}

func TestAttributeCatchesFilteredTrace(t *testing.T) {
	// Dropping the idle events leaves a conservation hole the fold must
	// report as such, since a filtered trace cannot be attributed.
	mutateTrace(t, "event filter", func(evs []obs.Event) []obs.Event {
		out := evs[:0]
		for _, ev := range evs {
			if ev.Type == obs.EvSchedIdleBegin || ev.Type == obs.EvSchedIdleEnd {
				continue
			}
			out = append(out, ev)
		}
		return out
	})
}

func TestAttributeCatchesOverlappingIntervals(t *testing.T) {
	mutateTrace(t, "on CPU", func(evs []obs.Event) []obs.Event {
		out := evs[:0]
		for _, ev := range evs {
			if ev.Type == obs.EvProcFinish && ev.Time == 100 {
				continue // pid 0 never leaves: next dispatch overlaps
			}
			out = append(out, ev)
		}
		return out
	})
}

func TestAttributeFoldedOutput(t *testing.T) {
	att, err := attributeEvents(t, goodTrace()...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := att.WriteFolded(&a); err != nil {
		t.Fatal(err)
	}
	if err := att.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("folded output not deterministic")
	}
	for _, want := range []string{
		"ITS/test;core0;idle 90\n",
		"ITS/test;core0;switch 20\n",
		"ITS/test;core0;cpu;pid0:wrf;execute 60\n",
		"ITS/test;core0;cpu;pid0:wrf;sync-fault;wait 15\n",
		"ITS/test;core0;cpu;pid0:wrf;sync-fault;prefetch-walk 5\n",
		"ITS/test;core0;cpu;pid0:wrf;sync-fault;preexec 15\n",
		"ITS/test;core0;cpu;pid0:wrf;sync-fault;recovery 5\n",
		"ITS/test;core0;cpu;pid1:gups;execute 190\n",
	} {
		if !strings.Contains(a.String(), want) {
			t.Fatalf("folded output missing %q:\n%s", want, a.String())
		}
	}
}

// The violation classes below fold through the same obs.Auditor as a live
// run; each must fail naming its core and its line (the schema header is
// line 1, so goodTrace()[i] sits on line i+2 until an event is dropped).

func TestAttributeCatchesLeaveWithoutDispatch(t *testing.T) {
	mutateTrace(t, "line 18: core 0: ProcFinish of pid 1 with no process on CPU", func(evs []obs.Event) []obs.Event {
		return append(evs[:16:16], evs[17:]...) // drop pid 1's dispatch at 300
	})
}

func TestAttributeCatchesBackwardsTime(t *testing.T) {
	mutateTrace(t, "line 16: core 0: virtual time went backwards: 205ns after 210ns", func(evs []obs.Event) []obs.Event {
		evs[14].Time = 205 // the async fault end lands before the idle span opened
		return evs
	})
}

func TestAttributeCatchesIdleEndWithoutBegin(t *testing.T) {
	mutateTrace(t, "line 16: core 0: scheduler-idle end without begin", func(evs []obs.Event) []obs.Event {
		return append(evs[:13:13], evs[14:]...)
	})
}

func TestAttributeCatchesDispatchedAtRunEnd(t *testing.T) {
	mutateTrace(t, "line 19: core 0: run ended with pid 1 still on CPU", func(evs []obs.Event) []obs.Event {
		return append(evs[:17:17], evs[18:]...) // pid 1 never finishes
	})
}

func TestAttributeCatchesSyncFaultEndOffCPU(t *testing.T) {
	mutateTrace(t, "line 8: core 0: synchronous fault end for pid 1 outside its dispatch", func(evs []obs.Event) []obs.Event {
		evs[6].PID = 1 // pid 0 is on the CPU
		return evs
	})
}

// A violation on a core other than 0 names that core.
func TestAttributeNamesTheViolatingCore(t *testing.T) {
	mutateTrace(t, "line 3: core 2: Preempt of pid 5 with no process on CPU", func(evs []obs.Event) []obs.Event {
		bad := obs.Event{Time: 0, Type: obs.EvPreempt, PID: 5, Core: 2}
		return append([]obs.Event{evs[0], bad}, evs[1:]...)
	})
}

// BuildTimeline frames runs and folds idle spans through the same auditor
// as Attribute — the idle span [210, 300) lands in the 200 ns bucket — but
// passes no verdict on the audit: a trace Attribute rejects for an idle end
// without a begin still has a timeline, with no idle in it.
func TestTimelineSharesTheFold(t *testing.T) {
	timeline := func(evs []obs.Event) sim.Time {
		r, err := NewReader(bytes.NewReader(encode(t, evs...)))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := BuildTimeline(r, 100)
		if err != nil {
			t.Fatal(err)
		}
		if len(tl.Runs) != 1 || len(tl.Runs[0].Buckets) != 5 {
			t.Fatalf("timeline shape %+v, want one run of 5 buckets", tl.Runs)
		}
		var idle sim.Time
		for _, b := range tl.Runs[0].Buckets {
			idle += b.IdleTime
		}
		if idle != tl.Runs[0].Buckets[2].IdleTime {
			t.Fatalf("idle outside the 200 ns bucket: %v of %v", idle-tl.Runs[0].Buckets[2].IdleTime, idle)
		}
		return idle
	}
	if idle := timeline(goodTrace()); idle != 90 {
		t.Fatalf("idle %v, want 90", idle)
	}

	bad := append(goodTrace()[:13:13], goodTrace()[14:]...)
	if _, err := attributeEvents(t, bad...); err == nil {
		t.Fatal("attribute accepted an idle end without a begin")
	}
	if idle := timeline(bad); idle != 0 {
		t.Fatalf("idle %v from an idle end without a begin, want 0", idle)
	}
}
