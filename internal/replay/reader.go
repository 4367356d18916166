// Package replay is the post-hoc trace-analytics layer: it ingests the obs
// JSONL sink's output as a first-class data source instead of a write-only
// debugging artifact.
//
// Three engines operate on the stream:
//
//   - Attribute folds the event stream into per-run, per-core, per-pid
//     virtual-time buckets — where each core's time went (execute, sync
//     fault wait, prefetch walk, pre-execute window, recovery, context
//     switch, scheduler idle) — rendered as flame-style folded stacks or a
//     JSON table, and cross-checkable against the run's summary with zero
//     tolerance, per core and per pid (RunAttribution.Check).
//   - Diff aligns two traces event-by-event on virtual time and reports the
//     first divergent event, per-counter drift, and per-window deltas
//     around fault injections — turning "same seed ⇒ byte-identical" from a
//     summary-level check into an event-level one.
//   - Timeline buckets the run by virtual time with per-bucket sync-wait
//     percentiles, showing when the waiting happened rather than only how
//     much.
//
// Attribute and Timeline frame runs and fold each core's events through an
// obs.Auditor, the state machine that audits every core of a live run.
// Everything is streaming and deterministic: memory is bounded by the
// folded state (not the trace length), and identical traces produce
// byte-identical output.
package replay

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"itsim/internal/obs"
)

// MaxLineBytes bounds one trace line. The sink never writes lines anywhere
// near this long; a longer line means a corrupt or hostile input and fails
// the read instead of growing memory without bound.
const MaxLineBytes = 1 << 20

// Reader streams events out of one JSONL trace, validating the
// schema-version header up front and every line as it passes. Memory use is
// bounded by one line regardless of trace size.
type Reader struct {
	sc   *bufio.Scanner
	line int
	done bool
}

// NewReader validates the trace's schema-version header and returns a
// streaming reader over its events. Traces with a missing or unknown
// version are rejected with a clear error rather than misread.
func NewReader(r io.Reader) (*Reader, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), MaxLineBytes)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("replay: reading trace header: %w", err)
		}
		return nil, errors.New("replay: empty input (want a JSONL trace starting with its schema header)")
	}
	v, err := obs.DecodeJSONLHeader(sc.Bytes())
	if err != nil {
		return nil, fmt.Errorf("replay: line 1: %w (is this an itsim JSONL trace?)", err)
	}
	if v != obs.TraceSchemaVersion {
		return nil, fmt.Errorf("replay: trace schema version %d, but this build reads only version %d — regenerate the trace or upgrade the tool",
			v, obs.TraceSchemaVersion)
	}
	return &Reader{sc: sc, line: 1}, nil
}

// Next returns the next event of the trace. ok is false at a clean end of
// input; a malformed line is an error naming its line number.
func (r *Reader) Next() (ev obs.Event, ok bool, err error) {
	if r.done {
		return obs.Event{}, false, nil
	}
	if !r.sc.Scan() {
		r.done = true
		if err := r.sc.Err(); err != nil {
			return obs.Event{}, false, fmt.Errorf("replay: after line %d: %w", r.line, err)
		}
		return obs.Event{}, false, nil
	}
	r.line++
	ev, err = obs.DecodeJSONL(r.sc.Bytes())
	if err != nil {
		return obs.Event{}, false, fmt.Errorf("replay: line %d: %w", r.line, err)
	}
	if ev.Time < 0 || ev.Dur < 0 {
		return obs.Event{}, false, fmt.Errorf("replay: line %d: negative time or duration", r.line)
	}
	if ev.Core < 0 && !(ev.Core == -1 && requestLifecycle(ev.Type)) {
		return obs.Event{}, false, fmt.Errorf("replay: line %d: negative core id", r.line)
	}
	if ev.PID < -1 {
		return obs.Event{}, false, fmt.Errorf("replay: line %d: invalid pid %d (machine scope is -1)", r.line, ev.PID)
	}
	return ev, true, nil
}

// requestLifecycle reports whether the kind describes a fleet request's
// lifecycle, where Core carries the machine id and -1 means "no machine"
// (the request timed out parked, was shed at admission, or retried before
// placement).
func requestLifecycle(t obs.Type) bool {
	switch t {
	case obs.EvReqTimeout, obs.EvReqRetry, obs.EvReqHedge, obs.EvReqShed:
		return true
	default:
		return false
	}
}

// Line returns the 1-based line number of the last event returned (the
// header is line 1).
func (r *Reader) Line() int { return r.line }

// ReadAll drains a whole trace into memory — a convenience for tests and
// small traces; the analytics engines stream instead.
func ReadAll(r io.Reader) ([]obs.Event, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []obs.Event
	for {
		ev, ok, err := rd.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, ev)
	}
}
