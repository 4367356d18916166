package cache

import "testing"

// newTLB builds a TLB the way the executor does: one fully associative set
// of entries ways with 1-byte lines, keyed by page number.
func newTLB(entries int) *Cache {
	return New(Config{SizeBytes: entries, LineBytes: 1, Ways: entries})
}

// lookup is the executor's TLB lookup: a hit, or a miss that installs the
// translation over the LRU entry.
func lookup(tlb *Cache, page uint64) bool {
	hit, _, _ := tlb.AccessFill(page)
	return hit
}

func TestTLBHitMiss(t *testing.T) {
	tlb := newTLB(4)
	if lookup(tlb, 1) {
		t.Fatal("hit on empty TLB")
	}
	if !lookup(tlb, 1) {
		t.Fatal("miss after insert")
	}
	if s := tlb.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %d/%d", s.Hits, s.Misses)
	}
}

// TestTLBLRUEviction covers both recency representations: packed order (3
// ways) and tick stamps (more than 16 ways).
func TestTLBLRUEviction(t *testing.T) {
	for _, entries := range []int{3, 20} {
		tlb := newTLB(entries)
		last := uint64(entries)
		for p := uint64(1); p <= last; p++ {
			lookup(tlb, p)
		}
		lookup(tlb, 1)      // refresh 1; LRU is now 2
		lookup(tlb, last+1) // evicts 2
		if tlb.ValidLines() != entries {
			t.Fatalf("%d entries: ValidLines = %d", entries, tlb.ValidLines())
		}
		for p := uint64(1); p <= last+1; p++ {
			if p != 2 && !lookup(tlb, p) {
				t.Fatalf("%d entries: recent entry %d evicted", entries, p)
			}
		}
		if lookup(tlb, 2) {
			t.Fatalf("%d entries: LRU entry survived", entries)
		}
	}
}

func TestTLBFlush(t *testing.T) {
	tlb := newTLB(8)
	for p := uint64(0); p < 8; p++ {
		lookup(tlb, p)
	}
	tlb.Flush()
	if tlb.ValidLines() != 0 {
		t.Fatal("flush left entries")
	}
	if lookup(tlb, 1) {
		t.Fatal("hit after flush")
	}
}

func TestTLBCapacityNeverExceeded(t *testing.T) {
	for _, entries := range []int{16, 64} {
		tlb := newTLB(entries)
		pages := uint64(2*entries + 5)
		for i := uint64(0); i < 1000; i++ {
			lookup(tlb, i%pages)
			if tlb.ValidLines() > entries {
				t.Fatalf("%d-entry TLB grew to %d entries", entries, tlb.ValidLines())
			}
		}
	}
}

func TestTLBZeroSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 0-entry TLB was accepted")
		}
	}()
	newTLB(0)
}
