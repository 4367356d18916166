package replay

import (
	"errors"
	"fmt"
	"sort"

	"itsim/internal/obs"
	"itsim/internal/sim"
)

// runSink is one analytics engine fed run by run by frameRuns.
type runSink interface {
	// begin opens a run at its RunBegin event.
	begin(ev obs.Event)
	// event takes one event of the open run once its core's auditor has
	// folded it. span is how far the event moved the auditor's accounted
	// time: a dispatch span's occupancy at a leave, a switch's charge, an
	// idle span's length at its end, the gap the auditor closed at a
	// dispatch that broke conservation, and 0 otherwise. The auditor
	// records violations without stopping; judging them is the sink's
	// call.
	event(ev obs.Event, c *runCore, span sim.Time) error
	// end closes the run at its RunEnd, with every core that emitted an
	// event, ascending by id.
	end(ev obs.Event, cores []*runCore) error
}

// runCore is one core of an open run: its id, the auditor folding its
// events, and its index in the run's first-event order, by which a sink
// keeps per-core state in a slice.
type runCore struct {
	id  int
	idx int
	aud *obs.Auditor
}

// framer is frameRuns' state: the open run, if any, and its cores.
type framer struct {
	sink  runSink
	open  bool
	label string
	runs  int
	byID  map[int]*runCore
	cores []*runCore // first-event order until the run ends
}

// frameRuns streams a trace into s run by run. It holds what the engines
// share: RunBegin/RunEnd framing, fleet-scope events skipped between runs,
// and one obs.Auditor per core — the state machine that audits each core
// of a live run — folding every event of a run. A sink's error ends the
// replay, naming its line; so do a trace that ends inside a run and a
// trace with no run at all.
func frameRuns(r *Reader, s runSink) error {
	f := &framer{sink: s}
	for {
		ev, ok, err := r.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := f.step(ev); err != nil {
			return fmt.Errorf("replay: line %d: %w", r.Line(), err)
		}
	}
	if f.open {
		return fmt.Errorf("replay: trace ended inside run %q (no EvRunEnd)", f.label)
	}
	if f.runs == 0 {
		return errors.New("replay: trace contains no runs")
	}
	return nil
}

func (f *framer) step(ev obs.Event) error {
	switch {
	case ev.Type == obs.EvRunBegin:
		if f.open {
			return fmt.Errorf("RunBegin %q inside open run %q", ev.Cause, f.label)
		}
		f.open, f.label = true, ev.Cause
		f.byID, f.cores = make(map[int]*runCore), nil
		f.sink.begin(ev)
		return nil
	case !f.open:
		if fleetScope(ev.Type) {
			// Cluster-coordinator events (request arrivals, routing,
			// completions) are stamped in global fleet time and live
			// between the per-machine runs of a fleet trace; they carry
			// no per-core occupancy.
			return nil
		}
		return fmt.Errorf("%s event outside any run (after RunEnd or before RunBegin)", ev.Type)
	case ev.Type == obs.EvRunEnd:
		sort.Slice(f.cores, func(i, j int) bool { return f.cores[i].id < f.cores[j].id })
		f.open = false
		f.runs++
		return f.sink.end(ev, f.cores)
	}

	c := f.byID[ev.Core]
	if c == nil {
		c = &runCore{id: ev.Core, idx: len(f.cores), aud: obs.NewAuditor()}
		f.byID[ev.Core] = c
		f.cores = append(f.cores, c)
	}
	before := c.aud.Accounted()
	c.aud.Write(ev)
	return f.sink.event(ev, c, c.aud.Accounted()-before)
}

// fleetScope reports whether t is a cluster-coordinator event kind that a
// fleet trace legitimately carries outside the per-machine RunBegin/RunEnd
// frames (see internal/cluster).
func fleetScope(t obs.Type) bool {
	switch t {
	case obs.EvRequestArrive, obs.EvRequestRoute, obs.EvRequestDone,
		obs.EvMachineDown, obs.EvMachineUp, obs.EvMachineDrain, obs.EvMachineDegrade,
		obs.EvReqTimeout, obs.EvReqRetry, obs.EvReqHedge, obs.EvReqShed:
		return true
	default:
		return false
	}
}
