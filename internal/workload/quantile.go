package workload

import (
	"sort"

	"itsim/internal/sim"
)

// QuantileTracker is a small online latency-quantile estimator over a
// sliding window of the most recent samples. The cluster's hedging layer
// uses it to derive per-tenant hedge delays ("dispatch a duplicate once
// the request has outlived the tenant's observed p99"): exact streaming
// quantiles are overkill for that, while a bounded window keeps the
// estimate adaptive to phase changes and the memory cost constant.
//
// Determinism: the estimate depends only on the sequence of Observe calls,
// so identically-seeded runs see identical hedge delays.
type QuantileTracker struct {
	win        []sim.Time
	next       int
	scratch    []sim.Time
	minSamples int
}

// DefaultQuantileWindow is the sliding-window size used by NewQuantileTracker.
const DefaultQuantileWindow = 64

// DefaultQuantileMinSamples is how many samples must arrive before Ready:
// a p99 estimated from three observations would hedge almost every request.
const DefaultQuantileMinSamples = 8

// NewQuantileTracker returns a tracker over a window of n samples (n ≥ 1;
// values below minSamples disable the warm-up gate).
func NewQuantileTracker(n, minSamples int) *QuantileTracker {
	if n < 1 {
		n = 1
	}
	return &QuantileTracker{
		win:        make([]sim.Time, 0, n),
		scratch:    make([]sim.Time, 0, n),
		minSamples: minSamples,
	}
}

// Observe records one latency sample.
func (q *QuantileTracker) Observe(lat sim.Time) {
	if len(q.win) < cap(q.win) {
		q.win = append(q.win, lat)
		return
	}
	q.win[q.next] = lat
	q.next = (q.next + 1) % cap(q.win)
}

// Samples returns how many observations the window currently holds.
func (q *QuantileTracker) Samples() int { return len(q.win) }

// Ready reports whether enough samples have arrived for Quantile to be
// meaningful.
func (q *QuantileTracker) Ready() bool { return len(q.win) >= q.minSamples }

// Quantile returns the p-quantile (p in [0,1]) of the current window using
// the nearest-rank method, or 0 when the window is empty.
func (q *QuantileTracker) Quantile(p float64) sim.Time {
	n := len(q.win)
	if n == 0 {
		return 0
	}
	q.scratch = append(q.scratch[:0], q.win...)
	sort.Slice(q.scratch, func(i, j int) bool { return q.scratch[i] < q.scratch[j] })
	idx := int(p*float64(n-1) + 0.5)
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return q.scratch[idx]
}
