package main

import (
	"errors"
	"math"
	"testing"

	"itsim/internal/workload"
)

// TestRunRejectsBadScale: the -scale path refuses every scale ProfileFor
// does, 0 included (core.Options would read it as 1.0), before any run;
// main exits 2 on these.
func TestRunRejectsBadScale(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e6} {
		if err := run(p(func(pp *params) { pp.scale = s })); !errors.Is(err, workload.ErrScale) {
			t.Errorf("-scale %v: %v, want ErrScale", s, err)
		}
	}
}
