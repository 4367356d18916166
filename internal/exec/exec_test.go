package exec

import (
	"strings"
	"testing"

	"itsim/internal/cache"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// TestLLCFillBackInvalidatesEveryL1 pins the inclusivity invariant at its
// single implementation: when llcFill displaces a victim from the shared
// LLC, the line disappears from every core's L1, not just the filling
// core's.
func TestLLCFillBackInvalidatesEveryL1(t *testing.T) {
	const line = 64
	// One-set, one-way LLC: any fill of a different line evicts the
	// previous occupant deterministically.
	s := &Shared{LLC: cache.New(cache.Config{SizeBytes: line, LineBytes: line, Ways: 1})}
	for i := 0; i < 4; i++ {
		s.Cores = append(s.Cores, &Core{S: s, ID: i,
			L1: cache.New(cache.Config{SizeBytes: 8 * line, LineBytes: line, Ways: 2})})
	}

	victim := Tagged(0, 0x1000)
	s.llcFill(victim)
	for _, c := range s.Cores {
		c.L1.Fill(victim)
		if !c.L1.Contains(victim) {
			t.Fatalf("core %d: L1 lost the line before the LLC eviction", c.ID)
		}
	}

	// A conflicting fill (same set, different line) evicts the victim from
	// the LLC; inclusion demands it leave all four L1s with it.
	s.llcFill(Tagged(0, 0x2000))
	if s.LLC.Contains(victim) {
		t.Fatal("conflicting fill did not evict the victim from the LLC")
	}
	for _, c := range s.Cores {
		if c.L1.Contains(victim) {
			t.Fatalf("core %d: L1 still holds a line the LLC evicted (inclusion violated)", c.ID)
		}
	}
	// The fill's own line was never in the L1s, so nothing else vanished.
	for _, c := range s.Cores {
		if got := c.L1.ValidLines(); got != 0 {
			t.Fatalf("core %d: %d valid L1 lines after invalidation, want 0", c.ID, got)
		}
	}
}

// TestPreExecCachePartitionsWays reads the geometry NewShared actually built:
// the shared LLC plus every core's pre-execute carve-out must add back up to
// the configured LLC, in both bytes and ways.
func TestPreExecCachePartitionsWays(t *testing.T) {
	gen := workload.Batches()[0].Generators(0.01)[0]
	specs := []ProcessSpec{{Name: gen.Name(), Gen: gen, Priority: 1, BaseVA: workload.BaseVA}}
	for _, cores := range []int{1, 2} {
		for _, frac := range []float64{0.1, 0.25, 0.5, 0.75, 0.9} {
			cfg := DefaultConfig()
			cfg.LLCSize = 1 << 20
			cfg.PreExecCacheFraction = frac
			pols := make([]policy.Policy, cores)
			for i := range pols {
				pols[i] = policy.New(policy.SyncRunahead)
			}
			s, err := NewShared(nil, cfg, pols, "t", specs)
			if err != nil {
				t.Fatalf("cores %d frac %v: %v", cores, frac, err)
			}
			llc := s.LLC.Config()
			size, ways := llc.SizeBytes, llc.Ways
			for _, c := range s.Cores {
				px := c.PX.PXC.Config()
				if px.SizeBytes <= 0 || px.Ways <= 0 {
					t.Fatalf("cores %d frac %v: core %d has empty pre-execute cache %+v", cores, frac, c.ID, px)
				}
				size += px.SizeBytes
				ways += px.Ways
			}
			if size != cfg.LLCSize {
				t.Fatalf("cores %d frac %v: LLC + px = %d bytes, want %d", cores, frac, size, cfg.LLCSize)
			}
			if ways != cfg.LLCWays {
				t.Fatalf("cores %d frac %v: LLC + px = %d ways, want %d", cores, frac, ways, cfg.LLCWays)
			}
		}
	}
}

func TestNewSharedValidation(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name  string
		pols  []policy.Policy
		specs []ProcessSpec
		want  string
	}{
		{"no policies", nil, []ProcessSpec{{}}, "no policy instances"},
		{"nil policy", []policy.Policy{nil}, []ProcessSpec{{}}, "nil policy instance"},
		{"no processes", []policy.Policy{policy.New(policy.Sync)}, nil, "no processes"},
	}
	for _, tc := range cases {
		_, err := NewShared(nil, cfg, tc.pols, "t", tc.specs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}
