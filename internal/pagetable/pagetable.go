// Package pagetable implements the 4-level x86_64-style page table of the
// paper's mini Linux-based kernel: PGD → PUD → PMD → PT, 512 entries per
// level, 4 KiB pages, 48-bit canonical virtual addresses.
//
// Each leaf PTE carries the control bits the ITS design relies on:
//
//   - Present  — the page is resident in DRAM (paper §3.1 step 3).
//   - Swapped  — the page is mapped but lives in the ULL swap device; its
//     swap-slot number occupies the frame field.
//   - Dirty/Accessed — standard bookkeeping used by the CLOCK replacement
//     policy in internal/mem.
//   - INV      — the repurposed spare control bit the fault-aware
//     pre-execute policy uses to mark pages holding bogus data (§3.4.2).
//
// The package also provides the iterative "walk forward in virtual address
// space" traversal of §3.4.1 (VisitFrom): starting at the victim page the
// walker increments the PT offset, and when a page table is exhausted moves
// to the next PMD entry's table, exactly as the paper's prefetcher does with
// pte_offset()/pmd_offset().
package pagetable

import "fmt"

// Geometry constants of the 4-level x86_64 layout.
const (
	// PageShift is log2 of the page size.
	PageShift = 12
	// PageSize is the page size in bytes.
	PageSize = 1 << PageShift
	// EntriesPerTable is the fan-out at every level.
	EntriesPerTable = 512
	// Levels is the number of table levels (PGD, PUD, PMD, PT).
	Levels = 4
	// VABits is the canonical virtual-address width.
	VABits = 48
)

// PTE control bits. The physical frame number (or swap slot when Swapped)
// lives in bits 12..47, matching the paper's "physical address located
// between bit positions 12 and 48 in the PT entry".
type PTE uint64

// PTE flag bits.
const (
	FlagPresent  PTE = 1 << 0
	FlagDirty    PTE = 1 << 1
	FlagAccessed PTE = 1 << 2
	// FlagINV is the repurposed spare control bit carrying the pre-execute
	// engine's invalid mark (paper §3.4.2).
	FlagINV PTE = 1 << 3
	// FlagSwapped marks a mapped page whose contents are in the ULL swap
	// device; the frame field then holds the swap slot.
	FlagSwapped PTE = 1 << 4

	frameShift = PageShift
	frameMask  = (PTE(1)<<(VABits-PageShift) - 1) << frameShift
)

// Present reports the Present bit.
func (p PTE) Present() bool { return p&FlagPresent != 0 }

// Swapped reports the Swapped bit.
func (p PTE) Swapped() bool { return p&FlagSwapped != 0 }

// Dirty reports the Dirty bit.
func (p PTE) Dirty() bool { return p&FlagDirty != 0 }

// Accessed reports the Accessed bit.
func (p PTE) Accessed() bool { return p&FlagAccessed != 0 }

// INV reports the pre-execute invalid bit.
func (p PTE) INV() bool { return p&FlagINV != 0 }

// Mapped reports whether the PTE refers to any page at all (present or
// swapped); a zero PTE is an unmapped hole.
func (p PTE) Mapped() bool { return p&(FlagPresent|FlagSwapped) != 0 }

// Frame returns the physical frame number (or swap slot when Swapped).
func (p PTE) Frame() uint64 { return uint64(p&frameMask) >> frameShift }

// WithFrame returns p with the frame field replaced.
func (p PTE) WithFrame(frame uint64) PTE {
	return (p &^ frameMask) | (PTE(frame)<<frameShift)&frameMask
}

// String renders the PTE for debugging.
func (p PTE) String() string {
	return fmt.Sprintf("PTE{frame=%#x present=%t swapped=%t dirty=%t acc=%t inv=%t}",
		p.Frame(), p.Present(), p.Swapped(), p.Dirty(), p.Accessed(), p.INV())
}

// levelShift returns the VA bit shift for table level l (0 = PGD).
func levelShift(l int) uint { return uint(PageShift + 9*(Levels-1-l)) }

// indexAt extracts the table index for va at level l.
func indexAt(va uint64, l int) int {
	return int((va >> levelShift(l)) & (EntriesPerTable - 1))
}

// node is one 512-entry table. Directory levels use kids; the leaf level
// (PT) uses ptes. Tables allocate lazily.
type node struct {
	kids []*node
	ptes []PTE
	// huge holds PMD-level 2 MiB leaf mappings (see huge.go); allocated
	// lazily, only on PMD-level nodes.
	huge []PTE
}

// AddressSpace is one process's page-table tree plus occupancy counters
// (the kernel's mm_struct analogue holds the pgd base pointer; here the
// AddressSpace is handed around directly). It also keeps the end of the
// highest region any leaf table or huge mapping covers, which bounds
// VisitFrom: tables are never freed, so no table lies at or above it.
type AddressSpace struct {
	root    node
	mapped  int
	present int
	// tablesAllocated counts leaf+directory tables, exposed for memory
	// overhead accounting and tests.
	tablesAllocated int
	// top is one past the highest address that a leaf table or a huge
	// mapping covers (0 while there is none). entry raises it when it
	// allocates a leaf table and MapHuge when it maps a 2 MiB block;
	// neither a table nor its reach is ever taken back.
	top uint64
	// pmd/pmdTag cache the PMD table of the last descent (tag = va >>
	// pmdShift), mirroring a hardware paging-structure cache: Lookup
	// runs once per simulated memory access and the page-table writes
	// (Set, Update and the helpers built on them) on every fault, so
	// both reach a PTE in two table reads instead of four. The cache
	// never goes stale: tables are never freed or replaced, and huge
	// mappings live in the cached node itself. Walk and VisitFrom
	// bypass it: their level counts feed the timing model.
	pmd    *node
	pmdTag uint64
}

// pmdShift is the VA shift selecting a PMD table (one 1 GiB reach).
const pmdShift = PageShift + 18

// New returns an empty address space.
func New() *AddressSpace {
	a := &AddressSpace{}
	a.root.kids = make([]*node, EntriesPerTable)
	a.tablesAllocated = 1
	return a
}

// MappedPages returns the number of mapped (present or swapped) pages.
func (a *AddressSpace) MappedPages() int { return a.mapped }

// PresentPages returns the number of resident pages.
func (a *AddressSpace) PresentPages() int { return a.present }

// TablesAllocated returns how many 512-entry tables exist.
func (a *AddressSpace) TablesAllocated() int { return a.tablesAllocated }

func canonical(va uint64) uint64 { return va & (1<<VABits - 1) }

// Walk looks up va without allocating. It returns the PTE, the number of
// table levels traversed (1..4 — the MMU/prefetcher timing model charges one
// memory access per level), and whether a leaf entry exists.
func (a *AddressSpace) Walk(va uint64) (pte PTE, levels int, ok bool) {
	va = canonical(va)
	n := &a.root
	for l := 0; l < Levels-1; l++ {
		levels++
		if l == 2 && n.huge != nil {
			if hp := n.huge[indexAt(va, 2)]; hp != 0 {
				// PMD-level huge mapping: the walk ends a level early.
				return hp, levels, true
			}
		}
		next := n.kids[indexAt(va, l)]
		if next == nil {
			return 0, levels, false
		}
		n = next
	}
	levels++
	p := n.ptes[indexAt(va, Levels-1)]
	if p == 0 {
		return 0, levels, false
	}
	return p, levels, true
}

// Lookup is Walk without the cost detail.
func (a *AddressSpace) Lookup(va uint64) (PTE, bool) {
	va = canonical(va)
	n := a.pmd
	if n == nil || va>>pmdShift != a.pmdTag {
		if n = a.pmdFor(va, false); n == nil {
			return 0, false
		}
	}
	i := indexAt(va, 2)
	if n.huge != nil {
		if hp := n.huge[i]; hp != 0 {
			return hp, true
		}
	}
	t := n.kids[i]
	if t == nil {
		return 0, false
	}
	p := t.ptes[indexAt(va, Levels-1)]
	return p, p != 0
}

// pmdFor returns the PMD table covering the canonical va and makes it the
// cached one. With alloc it allocates the missing directory tables on the
// way; without, it returns nil when the path is absent.
func (a *AddressSpace) pmdFor(va uint64, alloc bool) *node {
	n := &a.root
	for l := 0; l < 2; l++ { // PGD, PUD
		idx := indexAt(va, l)
		next := n.kids[idx]
		if next == nil {
			if !alloc {
				return nil
			}
			next = &node{kids: make([]*node, EntriesPerTable)}
			n.kids[idx] = next
			a.tablesAllocated++
		}
		n = next
	}
	a.pmd, a.pmdTag = n, va>>pmdShift
	return n
}

// entry returns a pointer to the leaf PTE for va, allocating intermediate
// tables as needed.
func (a *AddressSpace) entry(va uint64) *PTE {
	va = canonical(va)
	n := a.pmd
	if n == nil || va>>pmdShift != a.pmdTag {
		n = a.pmdFor(va, true)
	}
	i := indexAt(va, 2)
	if n.huge != nil && n.huge[i] != 0 {
		panic(fmt.Sprintf("pagetable: base-page access under huge mapping at %#x (SplitHuge first)", va))
	}
	t := n.kids[i]
	if t == nil {
		t = &node{ptes: make([]PTE, EntriesPerTable)}
		n.kids[i] = t
		a.tablesAllocated++
		a.raiseTop(va)
	}
	return &t.ptes[indexAt(va, Levels-1)]
}

// raiseTop lifts top to the end of the 2 MiB block holding the canonical
// va: the reach of one leaf table and of one huge mapping alike.
func (a *AddressSpace) raiseTop(va uint64) {
	if end := va&^uint64(HugePageSize-1) + HugePageSize; end > a.top {
		a.top = end
	}
}

// Set installs pte for va, maintaining the mapped/present counters. Setting
// a zero PTE unmaps the page.
func (a *AddressSpace) Set(va uint64, pte PTE) {
	e := a.entry(va)
	old := *e
	if old.Mapped() {
		a.mapped--
	}
	if old.Present() {
		a.present--
	}
	*e = pte
	if pte.Mapped() {
		a.mapped++
	}
	if pte.Present() {
		a.present++
	}
}

// Update applies fn to the PTE for va (allocating the path) and maintains
// counters. fn receives the current value and returns the new one.
func (a *AddressSpace) Update(va uint64, fn func(PTE) PTE) PTE {
	e := a.entry(va)
	old := *e
	nw := fn(old)
	if old.Mapped() {
		a.mapped--
	}
	if old.Present() {
		a.present--
	}
	*e = nw
	if nw.Mapped() {
		a.mapped++
	}
	if nw.Present() {
		a.present++
	}
	return nw
}

// MapSwapped maps va as swapped-out with the given swap slot (the state a
// page starts in before its first major fault, and returns to on eviction).
func (a *AddressSpace) MapSwapped(va uint64, slot uint64) {
	a.Set(va, (FlagSwapped).WithFrame(slot))
}

// MakePresent transitions va to resident in physical frame, preserving the
// INV bit and clearing Swapped. It returns the previous PTE.
func (a *AddressSpace) MakePresent(va uint64, frame uint64) PTE {
	var prev PTE
	a.Update(va, func(p PTE) PTE {
		prev = p
		np := (p &^ (FlagSwapped | frameMask)) | FlagPresent | FlagAccessed
		return np.WithFrame(frame)
	})
	return prev
}

// MakeSwapped transitions va from resident back to swapped-out at slot
// (eviction path). Dirty and Accessed are cleared; INV is cleared too — the
// page's contents are being replaced by a fresh copy from storage next time.
func (a *AddressSpace) MakeSwapped(va uint64, slot uint64) PTE {
	var prev PTE
	a.Update(va, func(p PTE) PTE {
		prev = p
		np := (p &^ (FlagPresent | FlagDirty | FlagAccessed | FlagINV | frameMask)) | FlagSwapped
		return np.WithFrame(slot)
	})
	return prev
}

// WalkStep describes one page visited by VisitFrom.
type WalkStep struct {
	// VA is the page-aligned virtual address.
	VA uint64
	// PTE is the entry's current value (zero for holes).
	PTE PTE
}

// VisitFrom iterates pages starting at the page containing startVA,
// ascending in virtual address order, calling visit for each until visit
// returns false or maxPages entries have been seen. Holes (absent leaf
// tables) are skipped table-at-a-time without per-page callbacks, mirroring
// how the paper's prefetcher "reverts to traversing the next PMD entry".
// It returns the number of pages visited and the number of distinct tables
// touched (for walk-cost accounting).
//
// The walk ends at the top of the address space's highest leaf table or
// huge mapping rather than at the 2^48 end of the canonical range. Past
// that point every descent finds only absent subtrees, which add to
// neither count, so the results, the visits and the caller's walk cost
// are those of a walk to 2^48; a start above every leaf table and huge
// mapping returns (0, 1) without a visit.
func (a *AddressSpace) VisitFrom(startVA uint64, maxPages int, visit func(WalkStep) bool) (visited, tablesTouched int) {
	va := canonical(startVA) &^ uint64(PageSize-1)
	end := a.top
	tablesTouched = 1 // the walk begins by reading the PGD
	for visited < maxPages && va < end {
		// Descend to the PT covering va, skipping absent subtrees.
		n := &a.root
		l := 0
		hugeHit := false
		for ; l < Levels-1; l++ {
			if l == 2 && n.huge != nil {
				if hp := n.huge[indexAt(va, 2)]; hp != 0 {
					// One step covers the whole 2 MiB mapping.
					visited++
					tablesTouched++
					if !visit(WalkStep{VA: va &^ uint64(HugePageSize-1), PTE: hp}) {
						return visited, tablesTouched
					}
					va = (va &^ uint64(HugePageSize-1)) + HugePageSize
					hugeHit = true
					break
				}
			}
			next := n.kids[indexAt(va, l)]
			if next == nil {
				break
			}
			n = next
		}
		if hugeHit {
			continue
		}
		if l < Levels-1 {
			// Hole: advance past this absent subtree.
			span := uint64(1) << levelShift(l)
			va = (va &^ (span - 1)) + span
			continue
		}
		tablesTouched++
		// Scan the leaf table from va's index onward.
		for idx := indexAt(va, Levels-1); idx < EntriesPerTable && visited < maxPages; idx++ {
			visited++
			if !visit(WalkStep{VA: va, PTE: n.ptes[idx]}) {
				return visited, tablesTouched
			}
			va += PageSize
		}
	}
	return visited, tablesTouched
}
