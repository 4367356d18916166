package replay_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"itsim/internal/core"
	"itsim/internal/fault"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/replay"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// The acceptance criterion: for every policy and core count of the test
// matrix, the replayed attribution totals must reconcile exactly — zero
// tolerance, virtual-time arithmetic — with the per-core conservation
// ledger (CPUTime + SchedulerIdle + ContextSwitchTime == LocalClock) and
// with every process's CPU time.
func TestAttributeReconcilesWithLedgerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("full policy×cores matrix is slow")
	}
	b := workload.Batches()[1]
	for _, kind := range policy.Kinds() {
		for _, cores := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/cores=%d", kind, cores), func(t *testing.T) {
				var buf bytes.Buffer
				trc := obs.NewTracer(obs.NewJSONL(&buf), obs.Filter{})
				run, err := core.RunBatch(b, kind, core.Options{Scale: 0.02, Cores: cores, Tracer: trc})
				if err != nil {
					t.Fatal(err)
				}
				if err := trc.Close(); err != nil {
					t.Fatal(err)
				}
				r, err := replay.NewReader(&buf)
				if err != nil {
					t.Fatal(err)
				}
				att, err := replay.Attribute(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(att.Runs) != 1 {
					t.Fatalf("got %d runs, want 1", len(att.Runs))
				}
				sum := run.Summary()
				if err := att.Runs[0].Check(&sum); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// A faulty, spin-budgeted ITS run (demotions, retries, injected tail
// spikes) must reconcile just as exactly as a healthy one.
func TestAttributeReconcilesUnderFaultInjection(t *testing.T) {
	b := workload.Batches()[1]
	for _, cores := range []int{1, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			var buf bytes.Buffer
			trc := obs.NewTracer(obs.NewJSONL(&buf), obs.Filter{})
			run, err := core.RunBatch(b, policy.ITS, core.Options{
				Scale: 0.02, Cores: cores, Tracer: trc,
				Fault:      fault.Config{Seed: 42, TailProb: 0.2, TailMult: 16, StallProb: 0.01, DMAFailProb: 0.05},
				SpinBudget: 4 * sim.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := trc.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := replay.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			att, err := replay.Attribute(r)
			if err != nil {
				t.Fatal(err)
			}
			sum := run.Summary()
			if err := att.Runs[0].Check(&sum); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Two identically-seeded runs must replay-diff to zero divergence, and
// their folded attribution output must be byte-identical.
func TestDiffIdenticalSeededRuns(t *testing.T) {
	mk := func() []byte {
		var buf bytes.Buffer
		trc := obs.NewTracer(obs.NewJSONL(&buf), obs.Filter{})
		_, err := core.RunBatch(workload.Batches()[1], policy.ITS, core.Options{
			Scale: 0.02, Tracer: trc,
			Fault:      fault.Config{Seed: 7, TailProb: 0.1, TailMult: 8, DMAFailProb: 0.02},
			SpinBudget: 4 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := trc.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := mk(), mk()
	if !bytes.Equal(a, b) {
		t.Fatal("identically-seeded traces differ at the byte level")
	}
	ra, err := replay.NewReader(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := replay.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	d, err := replay.Diff(ra, rb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Identical() {
		var rep bytes.Buffer
		_ = d.WriteText(&rep)
		t.Fatalf("identically-seeded runs diverge:\n%s", rep.String())
	}

	fold := func(data []byte) []byte {
		r, err := replay.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		att, err := replay.Attribute(r)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := att.WriteFolded(&out); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	if !bytes.Equal(fold(a), fold(b)) {
		t.Fatal("folded attribution output not byte-identical across identical traces")
	}
}

// A one-event perturbation must be localized to its first divergent event.
func TestDiffLocalizesPerturbation(t *testing.T) {
	var buf bytes.Buffer
	trc := obs.NewTracer(obs.NewJSONL(&buf), obs.Filter{})
	_, err := core.RunBatch(workload.Batches()[1], policy.ITS, core.Options{Scale: 0.02, Tracer: trc})
	if err != nil {
		t.Fatal(err)
	}
	if err := trc.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := replay.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) < 100 {
		t.Fatalf("trace too short (%d events) for a mid-stream perturbation", len(evs))
	}
	idx := len(evs) / 2
	perturbed := make([]obs.Event, len(evs))
	copy(perturbed, evs)
	perturbed[idx].Dur += 3

	var pbuf bytes.Buffer
	sink := obs.NewJSONL(&pbuf)
	for _, ev := range perturbed {
		sink.Write(ev)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	ra, err := replay.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := replay.NewReader(bytes.NewReader(pbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := replay.Diff(ra, rb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Identical() {
		t.Fatal("perturbed trace diffs as identical")
	}
	if d.First == nil || d.First.Index != idx {
		t.Fatalf("first divergence at %+v, want index %d", d.First, idx)
	}
	if d.First.A == nil || d.First.B == nil || d.First.B.Dur != d.First.A.Dur+3 {
		t.Fatalf("divergent pair does not show the perturbation: %+v", d.First)
	}
	if len(d.Drift) != 1 || d.Drift[0].Type != evs[idx].Type.String() {
		t.Fatalf("counter drift %+v not localized to the perturbed type %s", d.Drift, evs[idx].Type)
	}
}

// A trace recorded with an event filter has a timeline though it cannot be
// attributed: the timeline buckets the events the filter kept. The faulty
// run is the one that idles (stalls leave every process blocked). A pid
// filter drops the other processes' dispatches, which breaks conservation,
// but keeps every machine-scope idle event, so the idle column matches the
// unfiltered run's; a fault-only filter keeps the pid's synchronous waits
// and no scheduling event at all.
func TestTimelineOfFilteredTrace(t *testing.T) {
	trace := func(filter string) []byte {
		f, err := obs.ParseFilter(filter)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		trc := obs.NewTracer(obs.NewJSONL(&buf), f)
		_, err = core.RunBatch(workload.Batches()[1], policy.ITS, core.Options{
			Scale: 0.02, Tracer: trc,
			Fault:      fault.Config{Seed: 42, TailProb: 0.2, TailMult: 16, StallProb: 0.01, DMAFailProb: 0.05},
			SpinBudget: 4 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := trc.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	timeline := func(data []byte) *replay.RunTimeline {
		r, err := replay.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		tl, err := replay.BuildTimeline(r, 100*sim.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		return tl.Runs[0]
	}
	full, pid0, faults := trace(""), trace("pid=0"), trace("MajorFaultBegin,MajorFaultEnd,pid=0")

	r, err := replay.NewReader(bytes.NewReader(pid0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.Attribute(r); err == nil || !strings.Contains(err.Error(), "event filter") {
		t.Fatalf("attribute of a pid-filtered trace: %v, want a conservation gap", err)
	}

	evs, err := replay.ReadAll(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var wantSync uint64
	for _, ev := range evs {
		if ev.Type == obs.EvMajorFaultEnd && ev.Cause == "sync" && ev.PID == 0 {
			wantSync++
		}
	}
	if wantSync == 0 {
		t.Fatal("pid 0 took no synchronous faults; the fault-only timeline would be empty")
	}

	tlFull, tlPID, tlFaults := timeline(full), timeline(pid0), timeline(faults)
	var idleFull, idlePID sim.Time
	var syncPID, syncFaults uint64
	for i, b := range tlPID.Buckets {
		if i < len(tlFull.Buckets) && b.IdleTime != tlFull.Buckets[i].IdleTime {
			t.Fatalf("bucket %d: pid-filtered idle %v, unfiltered %v", i, b.IdleTime, tlFull.Buckets[i].IdleTime)
		}
		idlePID += b.IdleTime
		syncPID += b.SyncFaults
	}
	for _, b := range tlFull.Buckets {
		idleFull += b.IdleTime
	}
	for i, b := range tlFaults.Buckets {
		if b.IdleTime != 0 || b.Dispatches != 0 {
			t.Fatalf("bucket %d of the fault-only timeline has idle %v and %d dispatches", i, b.IdleTime, b.Dispatches)
		}
		p := tlPID.Buckets[i]
		if b.SyncFaults != p.SyncFaults || b.SyncWaitP50 != p.SyncWaitP50 || b.SyncWaitP99 != p.SyncWaitP99 || b.SyncWaitMax != p.SyncWaitMax {
			t.Fatalf("bucket %d: fault-only sync waits %+v, pid-filtered %+v", i, b, p)
		}
		syncFaults += b.SyncFaults
	}
	if idleFull == 0 || idlePID != idleFull {
		t.Fatalf("pid-filtered idle %v, unfiltered %v", idlePID, idleFull)
	}
	if syncPID != wantSync || syncFaults != wantSync {
		t.Fatalf("sync faults: pid-filtered %d, fault-only %d, want %d", syncPID, syncFaults, wantSync)
	}
}
