package main

import (
	"context"
	"encoding/json"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed call into a layer's public function, or a repetition
// enclosing such calls. Spans of one simulated run share a key of the form
// workload/rep/run.
type span struct {
	Name   string  `json:"name"`
	Key    string  `json:"key"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
}

// recorder keeps spans in memory for the traced pass. A nil recorder
// records nothing, which is how the untraced pass runs.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its handle for end.
func (r *recorder) begin(name, key string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Key: key, Parent: parent, Start: time.Since(r.t0).Seconds()})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	s := &r.spans[id]
	s.Dur = time.Since(r.t0).Seconds() - s.Start
	r.open = r.open[:len(r.open)-1]
}

// setPolicy labels the goroutine's profile samples with the I/O policy
// of the run it executes, so the folded profile can split time by policy;
// "" clears the label.
func (r *recorder) setPolicy(policy string) {
	if r == nil {
		return
	}
	ctx := context.Background()
	if policy != "" {
		ctx = pprof.WithLabels(ctx, pprof.Labels("policy", policy))
	}
	pprof.SetGoroutineLabels(ctx)
}

// spanTotal aggregates every span of one name. Self time is the total
// minus the time the span's children cover.
type spanTotal struct {
	Calls int     `json:"calls"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (r *recorder) totals() map[string]spanTotal {
	child := make([]float64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	out := make(map[string]spanTotal)
	for i, s := range r.spans {
		t := out[s.Name]
		t.Calls++
		t.Total += s.Dur
		t.Self += s.Dur - child[i]
		out[s.Name] = t
	}
	return out
}

// write saves every span and the per-name totals as one JSON document.
func (r *recorder) write(path string) error {
	b, err := json.MarshalIndent(struct {
		Totals map[string]spanTotal `json:"totals"`
		Spans  []span               `json:"spans"`
	}{r.totals(), r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
