package pagetable

import (
	"fmt"
	"testing"

	"itsim/internal/prng"
)

// modelRegions are the 1 GiB regions a model run touches: three neighbours
// under one PUD table and one under another PGD entry, so the PMD cache
// re-seats on most operations.
var modelRegions = [4]uint64{0, 1 << 30, 2 << 30, 1<<39 | 3<<30}

// modelVA picks a page from a few 2 MiB blocks per region, the first and
// last pages of each block among them.
func modelVA(b1, b2 byte) uint64 {
	pages := [8]uint64{0, 1, 2, 3, 7, 255, 510, 511}
	return modelRegions[b1&3] + uint64(b1>>2&3)*HugePageSize + pages[b2&7]*PageSize
}

// spaceModel is the map the address space must agree with: base PTEs by
// page and huge PTEs by 2 MiB block.
type spaceModel struct {
	base map[uint64]PTE
	huge map[uint64]PTE
}

func (m *spaceModel) lookup(va uint64) (PTE, bool) {
	if hp := m.huge[va&^uint64(HugePageSize-1)]; hp != 0 {
		return hp, true
	}
	p := m.base[va&^uint64(PageSize-1)]
	return p, p != 0
}

// counts is MappedPages and PresentPages over the model: a huge mapping
// counts as its 512 base pages.
func (m *spaceModel) counts() (mapped, present int) {
	for _, p := range m.base {
		if p.Mapped() {
			mapped++
		}
		if p.Present() {
			present++
		}
	}
	for _, p := range m.huge {
		if p.Mapped() {
			mapped += EntriesPerTable
		}
		if p.Present() {
			present += EntriesPerTable
		}
	}
	return mapped, present
}

// underHuge reports whether a base-page write at va must panic.
func (m *spaceModel) underHuge(va uint64) bool {
	return m.huge[va&^uint64(HugePageSize-1)] != 0
}

// panics runs fn and reports whether it panicked.
func panics(fn func()) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	fn()
	return false
}

// checkSpaceOps applies the operations encoded in data (four bytes each) to
// an AddressSpace and to the model, and fails on the first disagreement:
// a panic one side predicts and the other does not, a Lookup that differs
// from the model or from the uncached Walk, or the occupancy counters.
func checkSpaceOps(t *testing.T, data []byte) {
	t.Helper()
	a := New()
	m := &spaceModel{base: map[uint64]PTE{}, huge: map[uint64]PTE{}}
	var seen []uint64
	for i := 0; i+4 <= len(data); i += 4 {
		op, va, val := data[i]%8, modelVA(data[i+1], data[i+2]), uint64(data[i+3])
		seen = append(seen, va)
		// A random PTE: any flag combination, frame from val.
		pte := PTE(val & 0x1F).WithFrame(val * 3)
		var desc string
		var wantPanic bool
		var modelDo func()
		var do func()
		switch op {
		case 0:
			desc = fmt.Sprintf("Set(%#x, %v)", va, pte)
			wantPanic = m.underHuge(va)
			do = func() { a.Set(va, pte) }
			modelDo = func() { m.base[va] = pte }
		case 1:
			desc = fmt.Sprintf("Update(%#x, ^%#x)", va, val&0xF)
			wantPanic = m.underHuge(va)
			flip := PTE(val & 0xF)
			do = func() { a.Update(va, func(p PTE) PTE { return p ^ flip }) }
			modelDo = func() { m.base[va] ^= flip }
		case 2:
			desc = fmt.Sprintf("MapSwapped(%#x, %d)", va, val)
			wantPanic = m.underHuge(va)
			do = func() { a.MapSwapped(va, val) }
			modelDo = func() { m.base[va] = FlagSwapped.WithFrame(val) }
		case 3:
			desc = fmt.Sprintf("MakePresent(%#x, %d)", va, val)
			wantPanic = m.underHuge(va)
			do = func() { a.MakePresent(va, val) }
			modelDo = func() {
				p := m.base[va]
				m.base[va] = ((p &^ (FlagSwapped | frameMask)) | FlagPresent | FlagAccessed).WithFrame(val)
			}
		case 4:
			desc = fmt.Sprintf("MakeSwapped(%#x, %d)", va, val)
			wantPanic = m.underHuge(va)
			do = func() { a.MakeSwapped(va, val) }
			modelDo = func() {
				p := m.base[va]
				m.base[va] = ((p &^ (FlagPresent | FlagDirty | FlagAccessed | FlagINV | frameMask)) | FlagSwapped).WithFrame(val)
			}
		case 5:
			block := va &^ uint64(HugePageSize-1)
			desc = fmt.Sprintf("MapHuge(%#x, %v)", block, pte)
			for pv, p := range m.base {
				if pv&^uint64(HugePageSize-1) == block && p != 0 {
					wantPanic = true
				}
			}
			do = func() { a.MapHuge(va, pte) }
			modelDo = func() { m.huge[block] = pte | FlagHuge }
		case 6:
			block := va &^ uint64(HugePageSize-1)
			desc = fmt.Sprintf("SplitHuge(%#x)", block)
			split := func(i int) PTE { return FlagSwapped.WithFrame(val + uint64(i)) }
			do = func() {
				if ok := a.SplitHuge(va, split); ok != (m.huge[block] != 0) {
					t.Fatalf("%s = %v, model has %v", desc, ok, m.huge[block])
				}
			}
			modelDo = func() {
				if m.huge[block] == 0 {
					return
				}
				delete(m.huge, block)
				for i := 0; i < EntriesPerTable; i++ {
					m.base[block+uint64(i)*PageSize] = split(i)
				}
			}
		default:
			desc = fmt.Sprintf("Lookup(%#x)", va)
			do = func() {}
			modelDo = func() {}
		}
		if got := panics(do); got != wantPanic {
			t.Fatalf("op %d %s: panicked %v, model says %v", i/4, desc, got, wantPanic)
		}
		if !wantPanic {
			modelDo()
		}
		for _, pv := range append(seen, va+PageSize, va^HugePageSize) {
			p, ok := a.Lookup(pv)
			mp, mok := m.lookup(pv)
			wp, _, wok := a.Walk(pv)
			if p != mp || ok != mok || p != wp || ok != wok {
				t.Fatalf("after op %d %s: Lookup(%#x) = %v,%v; model %v,%v; Walk %v,%v",
					i/4, desc, pv, p, ok, mp, mok, wp, wok)
			}
			hp, hok := a.LookupHuge(pv)
			if mh := m.huge[pv&^uint64(HugePageSize-1)]; hp != mh || hok != (mh != 0) {
				t.Fatalf("after op %d %s: LookupHuge(%#x) = %v,%v; model %v", i/4, desc, pv, hp, hok, mh)
			}
		}
		if mapped, present := m.counts(); a.MappedPages() != mapped || a.PresentPages() != present {
			t.Fatalf("after op %d %s: mapped/present %d/%d, model %d/%d",
				i/4, desc, a.MappedPages(), a.PresentPages(), mapped, present)
		}
	}
}

// TestLookupMatchesWalk: over random Set, Update, MapSwapped, MakePresent,
// MakeSwapped, MapHuge, SplitHuge and Lookup sequences across four 1 GiB
// regions, the PMD-cached Lookup agrees with the uncached Walk and with a
// map model, and the occupancy counters with the model's.
func TestLookupMatchesWalk(t *testing.T) {
	rng := prng.New(0xA5A5)
	for i := 0; i < 300; i++ {
		data := make([]byte, 4*(1+rng.Intn(200)))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		checkSpaceOps(t, data)
	}
}

// FuzzAddressSpace is TestLookupMatchesWalk over fuzzed operation bytes.
func FuzzAddressSpace(f *testing.F) {
	f.Add([]byte{})
	// Map a page, map its block huge (refused), unmap it, map the block
	// huge, write under it (refused), split it, look it up elsewhere.
	f.Add([]byte{2, 0, 0, 9, 5, 0, 1, 3, 0, 0, 0, 0, 5, 0, 1, 3, 0, 0, 2, 1, 6, 0, 3, 4, 7, 1, 0, 0})
	rng := prng.New(11)
	for i := 0; i < 4; i++ {
		data := make([]byte, 4*(8+rng.Intn(64)))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(checkSpaceOps)
}
