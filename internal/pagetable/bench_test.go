package pagetable

import "testing"

func benchSpace(pages int) *AddressSpace {
	a := New()
	for i := 0; i < pages; i++ {
		a.MapSwapped(uint64(i)*PageSize, uint64(i))
	}
	return a
}

func BenchmarkWalk(b *testing.B) {
	a := benchSpace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Walk(uint64(i%4096) * PageSize)
	}
}

func BenchmarkMakePresentSwapped(b *testing.B) {
	a := benchSpace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(i%4096) * PageSize
		a.MakePresent(va, uint64(i))
		a.MakeSwapped(va, uint64(i))
	}
}

func BenchmarkVisitFrom(b *testing.B) {
	a := benchSpace(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.VisitFrom(uint64(i%4096)*PageSize, 8, func(WalkStep) bool { return true })
	}
}

var visitSink int

// BenchmarkVisitFromFleetTail is the ITS prefetch walk of a fleet request:
// a 100-page footprint, every page swapped out, and a fault in its last
// pages. The walk finds fewer than 8 swapped pages before the footprint
// ends, so it scans the rest of the leaf table and goes on past it.
func BenchmarkVisitFromFleetTail(b *testing.B) {
	a := benchSpace(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found := 0
		visitSink, _ = a.VisitFrom(uint64(96+i%4)*PageSize, 4*EntriesPerTable, func(s WalkStep) bool {
			if s.PTE.Swapped() {
				found++
			}
			return found < 8
		})
	}
}
