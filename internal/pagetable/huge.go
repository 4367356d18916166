package pagetable

import "fmt"

// Huge-page support: a PMD-level entry can map a whole 2 MiB region with a
// single leaf PTE, the structure behind the huge-page management the paper
// cites as motivation ("larger I/O sizes like huge page management", §1,
// [7,13]). The machine's SwapClusterPages models the I/O side of huge
// pages; this is the page-table side: mapping, lookup, and the demote
// (split) operation Linux performs when a huge mapping must become base
// pages.

const (
	// HugePageShift is log2 of the huge page size (PMD level: 2 MiB).
	HugePageShift = PageShift + 9
	// HugePageSize is the huge page size in bytes.
	HugePageSize = 1 << HugePageShift
)

// FlagHuge marks a PMD-level leaf mapping.
const FlagHuge PTE = 1 << 5

// Huge reports the huge-mapping bit.
func (p PTE) Huge() bool { return p&FlagHuge != 0 }

// hugeEntry returns the PMD-level slot covering the canonical va, or nil
// when alloc is false and the PMD table or its huge array is absent.
func (a *AddressSpace) hugeEntry(va uint64, alloc bool) *PTE {
	n := a.pmdFor(va, alloc)
	if n == nil {
		return nil
	}
	if n.huge == nil {
		if !alloc {
			return nil
		}
		n.huge = make([]PTE, EntriesPerTable)
	}
	return &n.huge[indexAt(va, 2)]
}

// MapHuge maps the 2 MiB-aligned region containing va as one huge page in
// the given state (the caller provides Present/Swapped flags and the frame
// or slot). It panics if base pages are already mapped inside the region —
// promotion (collapse) is a separate operation real kernels perform with
// care, and silently shadowing base PTEs would corrupt the space.
func (a *AddressSpace) MapHuge(va uint64, pte PTE) {
	base := canonical(va) &^ uint64(HugePageSize-1)
	// Refuse to shadow existing base mappings.
	if pmd := a.pmdFor(base, false); pmd != nil {
		if child := pmd.kids[indexAt(base, 2)]; child != nil {
			for _, e := range child.ptes {
				if e != 0 {
					panic(fmt.Sprintf("pagetable: MapHuge over mapped base pages at %#x", base))
				}
			}
		}
	}
	e := a.hugeEntry(base, true)
	a.raiseTop(base)
	old := *e
	if old.Mapped() {
		a.mapped -= EntriesPerTable
		if old.Present() {
			a.present -= EntriesPerTable
		}
	}
	pte |= FlagHuge
	*e = pte
	if pte.Mapped() {
		// A huge mapping counts as its 512 base pages in the occupancy
		// counters, keeping MappedPages/PresentPages meaningful.
		a.mapped += EntriesPerTable
		if pte.Present() {
			a.present += EntriesPerTable
		}
	}
}

// LookupHuge returns the huge-page PTE covering va, if one exists.
func (a *AddressSpace) LookupHuge(va uint64) (PTE, bool) {
	e := a.hugeEntry(canonical(va)&^uint64(HugePageSize-1), false)
	if e == nil || *e == 0 {
		return 0, false
	}
	return *e, true
}

// SplitHuge demotes the huge mapping covering va into 512 base-page PTEs,
// each produced by split(i) for base-page index i within the region (the
// kernel's huge-page split path: every base PTE inherits state derived from
// the huge one). It returns false if no huge mapping covers va.
func (a *AddressSpace) SplitHuge(va uint64, split func(i int) PTE) bool {
	base := canonical(va) &^ uint64(HugePageSize-1)
	e := a.hugeEntry(base, false)
	if e == nil || *e == 0 {
		return false
	}
	old := *e
	*e = 0
	if old.Mapped() {
		a.mapped -= EntriesPerTable
		if old.Present() {
			a.present -= EntriesPerTable
		}
	}
	for i := 0; i < EntriesPerTable; i++ {
		a.Set(base+uint64(i)*PageSize, split(i))
	}
	return true
}
