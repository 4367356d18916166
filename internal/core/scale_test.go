package core

import (
	"errors"
	"math"
	"testing"

	"itsim/internal/policy"
	"itsim/internal/workload"
)

// TestRunRejectsBadScale: a scale ProfileFor refuses is an error from the
// run functions before any machine is built, never a panic or a silent
// run at the default scale.
func TestRunRejectsBadScale(t *testing.T) {
	b := workload.Batches()[0]
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e6} {
		opts := Options{Scale: s}
		if _, err := RunBatch(b, policy.ITS, opts); !errors.Is(err, workload.ErrScale) {
			t.Errorf("RunBatch at scale %v: %v, want ErrScale", s, err)
		}
		if _, err := RunBatchWithPolicy(b, policy.New(policy.Sync), opts); !errors.Is(err, workload.ErrScale) {
			t.Errorf("RunBatchWithPolicy at scale %v: %v, want ErrScale", s, err)
		}
		if _, err := RunGrid(opts); !errors.Is(err, workload.ErrScale) {
			t.Errorf("RunGrid at scale %v: %v, want ErrScale", s, err)
		}
	}
	// Only the zero value selects the default.
	if got := (Options{}).scale(); got != 1 {
		t.Fatalf("zero Options scale = %v, want 1", got)
	}
	if got := (Options{Scale: -1}).scale(); got != -1 {
		t.Fatalf("Options{Scale: -1}.scale() = %v, want -1 passed through", got)
	}
}
