package workload

import (
	"errors"
	"math"
	"testing"
)

// badScales are the scales no profile can be built at: not positive (NaN
// compares false with everything) or past MaxFootprintBytes.
var badScales = []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 1e6}

func TestProfileForRejectsBadScale(t *testing.T) {
	for _, s := range badScales {
		for _, name := range Names() {
			if p, err := ProfileFor(name, s); !errors.Is(err, ErrScale) {
				t.Errorf("ProfileFor(%s, %v) = %+v, %v; want ErrScale", name, s, p, err)
			}
		}
		if err := CheckScale(s); !errors.Is(err, ErrScale) {
			t.Errorf("CheckScale(%v) = %v, want ErrScale", s, err)
		}
	}
}

// TestProfileForFootprintBound: the bound is inclusive; a non-positive
// scale is refused before the name is looked up, a large one after.
func TestProfileForFootprintBound(t *testing.T) {
	full, err := ProfileFor(RandomWalk, 1)
	if err != nil {
		t.Fatal(err)
	}
	atMax := float64(MaxFootprintBytes) / float64(full.FootprintBytes)
	p, err := ProfileFor(RandomWalk, atMax)
	if err != nil || p.FootprintBytes != MaxFootprintBytes {
		t.Fatalf("scale %v at the bound: footprint %d, %v", atMax, p.FootprintBytes, err)
	}
	if _, err := ProfileFor(RandomWalk, atMax*(1+1e-9)); !errors.Is(err, ErrScale) {
		t.Fatalf("scale just past the bound accepted: %v", err)
	}
	if err := CheckScale(0.25); err != nil {
		t.Fatalf("CheckScale(0.25) = %v", err)
	}
	if _, err := ProfileFor("nope", -1); !errors.Is(err, ErrScale) {
		t.Fatalf("negative scale with an unknown name: %v", err)
	}
	if _, err := ProfileFor("nope", 1); err == nil || errors.Is(err, ErrScale) {
		t.Fatalf("unknown name at a valid scale: %v", err)
	}
}
