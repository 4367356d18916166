package main

import (
	"errors"
	"io"
	"math"
	"testing"

	"itsim/internal/workload"
)

// TestRunRejectsBadScale: the -scale path refuses every scale ProfileFor
// does, 0 included, before any experiment starts (a NaN scale used to
// panic inside a grid worker); main exits 2 on these.
func TestRunRejectsBadScale(t *testing.T) {
	for _, s := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e6} {
		for _, exp := range []string{"fig4a", "fleet", "setup"} {
			p := tiny(exp)
			p.scale = s
			if _, err := run(io.Discard, p); !errors.Is(err, workload.ErrScale) {
				t.Errorf("-exp %s -scale %v: %v, want ErrScale", exp, s, err)
			}
		}
	}
}
