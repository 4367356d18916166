package replay

import (
	"fmt"
	"io"
	"sort"

	"itsim/internal/obs"
	"itsim/internal/sim"
)

// Timeline is the bucketed virtual-time view of a trace: when the events,
// dispatches, synchronous waits and scheduler idle happened, not just how
// much of each the run totalled.
type Timeline struct {
	Runs []*RunTimeline `json:"runs"`
}

// RunTimeline is one run's bucket series.
type RunTimeline struct {
	Label   string    `json:"label"`
	Width   sim.Time  `json:"bucket_ns"`
	Buckets []*Bucket `json:"buckets"`
}

// Bucket aggregates one [Start, Start+Width) window of virtual time. The
// sync-wait percentiles are exact (nearest-rank over the windows that ended
// in the bucket), not histogram approximations.
type Bucket struct {
	Start      sim.Time `json:"start_ns"`
	Events     uint64   `json:"events"`
	Dispatches uint64   `json:"dispatches"`
	SyncFaults uint64   `json:"sync_faults"`
	// IdleTime is scheduler-idle span time overlapping the bucket (spans
	// are split across the buckets they cover).
	IdleTime    sim.Time `json:"idle_ns"`
	SyncWaitP50 sim.Time `json:"sync_wait_p50_ns"`
	SyncWaitP99 sim.Time `json:"sync_wait_p99_ns"`
	SyncWaitMax sim.Time `json:"sync_wait_max_ns"`

	syncDurs []sim.Time
}

// maxBuckets bounds a run's bucket count so a hostile trace (tiny width,
// huge timestamp) cannot allocate without bound.
const maxBuckets = 1 << 20

// BuildTimeline buckets a whole trace by virtual time. Only run-framed
// events count, and each core's idle spans are its auditor's, as in
// Attribute. The timeline passes no verdict on the audit: a trace recorded
// with an event filter buckets the events it kept.
func BuildTimeline(r *Reader, width sim.Time) (*Timeline, error) {
	if width <= 0 {
		width = sim.Millisecond
	}
	s := &timelineSink{width: width}
	if err := frameRuns(r, s); err != nil {
		return nil, err
	}
	return &s.tl, nil
}

// timelineSink is BuildTimeline's runSink.
type timelineSink struct {
	width sim.Time
	tl    Timeline
	run   *RunTimeline
}

func (s *timelineSink) begin(ev obs.Event) {
	s.run = &RunTimeline{Label: ev.Cause, Width: s.width}
}

func (s *timelineSink) event(ev obs.Event, _ *runCore, span sim.Time) error {
	b, err := s.run.bucket(ev.Time)
	if err != nil {
		return err
	}
	b.Events++
	switch ev.Type {
	case obs.EvDispatch:
		b.Dispatches++
	case obs.EvMajorFaultEnd:
		if ev.Cause == "sync" {
			b.SyncFaults++
			b.syncDurs = append(b.syncDurs, ev.Dur)
		}
	case obs.EvSchedIdleEnd:
		return s.run.spreadIdle(ev.Time-span, ev.Time)
	default:
		// Every other event only counts toward the bucket total.
	}
	return nil
}

func (s *timelineSink) end(obs.Event, []*runCore) error {
	s.run.finalize()
	s.tl.Runs = append(s.tl.Runs, s.run)
	return nil
}

// bucket returns (growing the series on demand) the bucket covering time t.
func (rt *RunTimeline) bucket(t sim.Time) (*Bucket, error) {
	i := int(t / rt.Width)
	if i >= maxBuckets {
		return nil, fmt.Errorf("timestamp %d overflows the %d-bucket bound at width %d", int64(t), maxBuckets, int64(rt.Width))
	}
	for len(rt.Buckets) <= i {
		rt.Buckets = append(rt.Buckets, &Bucket{Start: sim.Time(len(rt.Buckets)) * rt.Width})
	}
	return rt.Buckets[i], nil
}

// spreadIdle distributes one idle span over the buckets it overlaps.
func (rt *RunTimeline) spreadIdle(start, end sim.Time) error {
	for t := start; t < end; {
		b, err := rt.bucket(t)
		if err != nil {
			return err
		}
		next := b.Start + rt.Width
		if next > end {
			next = end
		}
		b.IdleTime += next - t
		t = next
	}
	return nil
}

// finalize computes the per-bucket percentiles.
func (rt *RunTimeline) finalize() {
	for _, b := range rt.Buckets {
		if len(b.syncDurs) == 0 {
			continue
		}
		sort.Slice(b.syncDurs, func(i, j int) bool { return b.syncDurs[i] < b.syncDurs[j] })
		b.SyncWaitP50 = nearestRank(b.syncDurs, 50)
		b.SyncWaitP99 = nearestRank(b.syncDurs, 99)
		b.SyncWaitMax = b.syncDurs[len(b.syncDurs)-1]
		b.syncDurs = nil
	}
}

// nearestRank returns the pct-th percentile of a sorted slice by the
// nearest-rank definition (integer arithmetic, no float rounding drift).
func nearestRank(sorted []sim.Time, pct int) sim.Time {
	n := len(sorted)
	i := (pct*n + 99) / 100
	if i < 1 {
		i = 1
	}
	return sorted[i-1]
}

// WriteText renders the timeline as a deterministic table, one row per
// bucket, durations in integer virtual nanoseconds.
func (tl *Timeline) WriteText(w io.Writer) error {
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, rt := range tl.Runs {
		pf("run %s (bucket %d ns)\n", rt.Label, int64(rt.Width))
		pf("%12s %8s %10s %10s %12s %14s %14s %14s\n",
			"start_ns", "events", "dispatches", "syncfaults", "idle_ns", "syncwait_p50", "syncwait_p99", "syncwait_max")
		for _, b := range rt.Buckets {
			if b.Events == 0 && b.IdleTime == 0 {
				continue
			}
			pf("%12d %8d %10d %10d %12d %14d %14d %14d\n",
				int64(b.Start), b.Events, b.Dispatches, b.SyncFaults, int64(b.IdleTime),
				int64(b.SyncWaitP50), int64(b.SyncWaitP99), int64(b.SyncWaitMax))
		}
	}
	return err
}
