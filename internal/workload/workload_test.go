package workload

import (
	"testing"
	"testing/quick"

	"itsim/internal/trace"
)

func TestAllProfilesValid(t *testing.T) {
	for _, name := range Names() {
		p, err := ProfileFor(name, 1.0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := ProfileFor("nope", 1.0); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if _, err := ProfileFor(Caffe, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
}

// TestProfileForAllocatesNothing: a fleet looks a profile up once per
// request, so the lookup reads a table built once instead of rebuilding it.
// Scaling a copy must not disturb the table either.
func TestProfileForAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ProfileFor(PageRank, 0.5); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ProfileFor allocates %v times per call, want 0", n)
	}
	full, _ := ProfileFor(PageRank, 1.0)
	if full.FootprintBytes != 80*MiB {
		t.Errorf("PageRank footprint at scale 1 = %d, want %d after scaled lookups", full.FootprintBytes, 80*MiB)
	}
}

func TestDeterministicStreams(t *testing.T) {
	a := MustGenerator(RandomWalk, 0.02)
	b := MustGenerator(RandomWalk, 0.02)
	var ra, rb trace.Record
	for i := 0; i < 5000; i++ {
		okA := a.Next(&ra)
		okB := b.Next(&rb)
		if okA != okB || ra != rb {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, ra, rb)
		}
		if !okA {
			break
		}
	}
}

func TestResetReproduces(t *testing.T) {
	g := MustGenerator(Wrf, 0.02)
	first := trace.Records(g)
	second := trace.Records(g)
	if len(first) != len(second) {
		t.Fatalf("lengths differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs after Reset", i)
		}
	}
}

func TestRecordCountMatchesLen(t *testing.T) {
	for _, name := range Names() {
		g := MustGenerator(name, 0.01)
		got := 0
		var r trace.Record
		for g.Next(&r) {
			got++
		}
		if got != g.Len() {
			t.Fatalf("%s: produced %d records, Len() = %d", name, got, g.Len())
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, name := range Names() {
		g := MustGenerator(name, 0.02)
		lo := uint64(BaseVA)
		hi := lo + g.FootprintBytes()
		var r trace.Record
		for g.Next(&r) {
			if r.Addr < lo || r.Addr >= hi {
				t.Fatalf("%s: address %#x outside [%#x, %#x)", name, r.Addr, lo, hi)
			}
			if r.Size == 0 || r.Dst >= trace.NumRegs || r.Src >= trace.NumRegs {
				t.Fatalf("%s: bad record %+v", name, r)
			}
		}
	}
}

func TestClassSplit(t *testing.T) {
	di := map[string]bool{RandomWalk: true, Graph500: true, PageRank: true}
	for _, name := range Names() {
		g := MustGenerator(name, 0.01)
		want := GeneralPurpose
		if di[name] {
			want = DataIntensive
		}
		if g.Class() != want {
			t.Fatalf("%s class = %v, want %v", name, g.Class(), want)
		}
	}
	if GeneralPurpose.String() != "general-purpose" || DataIntensive.String() != "data-intensive" {
		t.Fatal("Class strings wrong")
	}
}

func TestSequentialityByClass(t *testing.T) {
	// General-purpose traces must show much higher page-level locality
	// than data-intensive ones: measure the fraction of accesses landing
	// in the same page as one of the previous 4 accesses.
	locality := func(name string) float64 {
		g := MustGenerator(name, 0.05)
		var r trace.Record
		var recent [4]uint64
		hits, total := 0, 0
		for g.Next(&r) && total < 50000 {
			page := r.Addr >> 12
			for _, p := range recent {
				if p == page {
					hits++
					break
				}
			}
			copy(recent[:], recent[1:])
			recent[3] = page
			total++
		}
		return float64(hits) / float64(total)
	}
	wrf := locality(Wrf)
	rw := locality(RandomWalk)
	if wrf < rw+0.2 {
		t.Fatalf("locality split violated: wrf=%.2f randomwalk=%.2f", wrf, rw)
	}
}

func TestScaleShrinksFootprintAndRecords(t *testing.T) {
	big, _ := ProfileFor(Wrf, 1.0)
	small, _ := ProfileFor(Wrf, 0.1)
	if small.FootprintBytes >= big.FootprintBytes || small.Records >= big.Records {
		t.Fatalf("scaling failed: %d/%d vs %d/%d",
			small.FootprintBytes, small.Records, big.FootprintBytes, big.Records)
	}
	if small.HotBytes >= big.HotBytes {
		t.Fatal("hot region not scaled")
	}
}

func TestScaleFloorsProperty(t *testing.T) {
	f := func(s float64) bool {
		if s <= 0 || s > 4 {
			s = 0.001
		}
		p, err := ProfileFor(Xz, s)
		if err != nil {
			return false
		}
		return p.FootprintBytes >= 16*4096 && p.Records >= 1000 && p.HotBytes >= 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWarmPages(t *testing.T) {
	g := MustGenerator(Caffe, 0.05)
	ws := g.WarmPages(100)
	if len(ws) != 100 {
		t.Fatalf("WarmPages(100) returned %d", len(ws))
	}
	seen := map[uint64]bool{}
	lo, hi := uint64(BaseVA), uint64(BaseVA)+g.FootprintBytes()
	for _, va := range ws {
		if va%trace.PageSize != 0 {
			t.Fatalf("unaligned warm page %#x", va)
		}
		if va < lo || va >= hi {
			t.Fatalf("warm page %#x outside footprint", va)
		}
		if seen[va] {
			t.Fatalf("duplicate warm page %#x", va)
		}
		seen[va] = true
	}
	// Hot region first: the first warm page is the hot base.
	if ws[0] != lo {
		t.Fatalf("first warm page %#x, want hot base %#x", ws[0], lo)
	}
	if got := g.WarmPages(0); got != nil {
		t.Fatal("WarmPages(0) != nil")
	}
}

func TestWarmPagesCappedByFootprint(t *testing.T) {
	g := MustGenerator(DeepSjeng, 0.01)
	pages := int(trace.FootprintPages(g.FootprintBytes()))
	ws := g.WarmPages(pages * 10)
	if len(ws) > pages {
		t.Fatalf("WarmPages returned %d > footprint pages %d", len(ws), pages)
	}
}

func TestBatches(t *testing.T) {
	bs := Batches()
	if len(bs) != 4 {
		t.Fatalf("%d batches", len(bs))
	}
	for i, b := range bs {
		if len(b.Members) != 6 || len(b.Priorities) != 6 {
			t.Fatalf("%s: %d members, %d priorities", b.Name, len(b.Members), len(b.Priorities))
		}
		if b.DataIntensive != i {
			t.Fatalf("%s: DataIntensive = %d, want %d", b.Name, b.DataIntensive, i)
		}
		// Priorities are a permutation of 1..6.
		seen := map[int]bool{}
		for _, p := range b.Priorities {
			if p < 1 || p > 6 || seen[p] {
				t.Fatalf("%s: bad priorities %v", b.Name, b.Priorities)
			}
			seen[p] = true
		}
		// The shared trio leads every batch.
		if b.Members[0] != Wrf || b.Members[1] != Blender || b.Members[2] != CommDetect {
			t.Fatalf("%s: members %v", b.Name, b.Members)
		}
		// Declared data-intensive count matches the members.
		di := 0
		for _, m := range b.Members {
			if g := MustGenerator(m, 0.01); g.Class() == DataIntensive {
				di++
			}
		}
		if di != b.DataIntensive {
			t.Fatalf("%s: %d DI members, declared %d", b.Name, di, b.DataIntensive)
		}
	}
}

func TestBatchByName(t *testing.T) {
	b, err := BatchByName("2_Data_Intensive")
	if err != nil || b.DataIntensive != 2 {
		t.Fatalf("BatchByName: %+v, %v", b, err)
	}
	if _, err := BatchByName("nope"); err == nil {
		t.Fatal("unknown batch accepted")
	}
}

func TestBatchGeneratorsAndFootprint(t *testing.T) {
	b := Batches()[0]
	gens := b.Generators(0.05)
	if len(gens) != 6 {
		t.Fatalf("%d generators", len(gens))
	}
	var sum uint64
	for _, g := range gens {
		sum += g.FootprintBytes()
	}
	if got := b.TotalFootprint(0.05); got != sum {
		t.Fatalf("TotalFootprint = %d, want %d", got, sum)
	}
}

func TestAssignPriorities(t *testing.T) {
	p := AssignPriorities(6, 1)
	seen := map[int]bool{}
	for _, v := range p {
		if v < 1 || v > 6 || seen[v] {
			t.Fatalf("bad permutation %v", p)
		}
		seen[v] = true
	}
	q := AssignPriorities(6, 1)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("same seed, different permutation")
		}
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid profile accepted")
		}
	}()
	New(Profile{Name: "bad", FootprintBytes: 100, Records: 10})
}

func TestZipfScatterNotContiguous(t *testing.T) {
	// The permuted-Zipf random stream must not concentrate its hottest
	// pages in one contiguous VA run (that would make random workloads
	// artificially prefetchable). Count how often consecutive random
	// accesses land on VA-adjacent pages.
	p, _ := ProfileFor(RandomWalk, 0.05)
	p.PSeq, p.PHot = 0, 0 // pure random
	g := New(p)
	var r trace.Record
	var prev uint64
	adjacent, total := 0, 0
	for g.Next(&r) && total < 20000 {
		page := r.Addr >> 12
		if prev != 0 && (page == prev+1 || page == prev-1) {
			adjacent++
		}
		prev = page
		total++
	}
	if frac := float64(adjacent) / float64(total); frac > 0.01 {
		t.Fatalf("random stream %v%% VA-adjacent; hot pages not scattered", 100*frac)
	}
}

func TestPhasesShiftWorkingSet(t *testing.T) {
	// A hot-dominated profile makes the phase relocation visible: each
	// phase hammers one small region.
	base := Profile{
		Name: "phased", FootprintBytes: 32 << 20, Records: 20000,
		PSeq: 0.1, PHot: 0.8, HotBytes: 256 << 10,
		StoreFrac: 0.2, GapMean: 5, Seed: 99,
	}
	base.Phases = 4
	g := New(base)
	// Collect the hot-access page sets of the first and last quarter; with
	// phases they must differ substantially.
	quarter := base.Records / 4
	pages := func(skip, take int) map[uint64]int {
		g.Reset()
		var r trace.Record
		out := map[uint64]int{}
		for i := 0; i < skip+take; i++ {
			if !g.Next(&r) {
				break
			}
			if i >= skip {
				out[r.Addr>>12]++
			}
		}
		return out
	}
	first := pages(0, quarter)
	last := pages(3*quarter, quarter)
	common := 0
	for pg := range first {
		if _, ok := last[pg]; ok {
			common++
		}
	}
	overlap := float64(common) / float64(len(first))
	if overlap > 0.6 {
		t.Fatalf("phase shift ineffective: %.0f%% page overlap between first and last quarter", 100*overlap)
	}
	// Single-phase control: overlap should be much higher.
	base.Phases = 0
	g = New(base)
	first = pages(0, quarter)
	last = pages(3*quarter, quarter)
	common = 0
	for pg := range first {
		if _, ok := last[pg]; ok {
			common++
		}
	}
	if single := float64(common) / float64(len(first)); single <= overlap {
		t.Fatalf("single-phase overlap %.2f not above phased %.2f", single, overlap)
	}
}

func TestPhasesStillDeterministic(t *testing.T) {
	p, _ := ProfileFor(Blender, 0.02)
	p.Phases = 3
	a, b := New(p), New(p)
	var ra, rb trace.Record
	for i := 0; i < p.Records; i++ {
		okA, okB := a.Next(&ra), b.Next(&rb)
		if okA != okB || ra != rb {
			t.Fatalf("phased streams diverged at %d", i)
		}
		if !okA {
			break
		}
	}
}
