// Package mem models main memory: a fixed pool of physical page frames with
// a pluggable replacement policy (CLOCK by default, true-LRU for ablations)
// and the 50 ns access latency of the paper's §4.1 configuration.
//
// DRAM capacity is the experiment's pressure knob: the paper sizes DRAM "to
// match the working set", and memory contention between processes is what
// produces the page-fault cascade the ITS self-sacrificing thread dampens.
package mem

import (
	"fmt"

	"itsim/internal/sim"
)

// AccessLatency is the DRAM access latency (paper §4.1, [3]).
const AccessLatency = 50 * sim.Nanosecond

// FrameID indexes a physical page frame.
type FrameID uint32

// NoFrame is the sentinel invalid frame.
const NoFrame = FrameID(^uint32(0))

// Frame is the metadata of one physical page frame (a struct page analogue).
type Frame struct {
	// Owner is the process id the frame belongs to (-1 when free).
	Owner int
	// VA is the page-aligned virtual address mapped to this frame.
	VA uint64
	// Referenced is the CLOCK reference bit, set on access.
	Referenced bool
	// Dirty means the frame must be written back before reuse.
	Dirty bool
	// Pinned frames are ineligible for eviction (page under DMA).
	Pinned bool
	// Prefetched marks frames filled by a prefetcher and not yet touched
	// by real execution; used for prefetch-accuracy metrics and as a
	// cheap-to-reclaim class.
	Prefetched bool
	// InUse distinguishes allocated frames from free ones.
	InUse bool
}

// Stats counts frame-pool activity.
type Stats struct {
	Allocations uint64
	Evictions   uint64
	Writebacks  uint64 // dirty victims that required write-back
	Frees       uint64
	ClockSweeps uint64 // frames examined by the victim scan
}

// ReplacementKind selects the victim-selection policy.
type ReplacementKind int

const (
	// ReplaceClock is the Linux-style CLOCK (second chance) policy.
	ReplaceClock ReplacementKind = iota
	// ReplaceLRU is true-LRU, for ablation comparisons.
	ReplaceLRU
)

// String names the policy.
func (k ReplacementKind) String() string {
	if k == ReplaceLRU {
		return "lru"
	}
	return "clock"
}

// DRAM is the physical memory pool.
type DRAM struct {
	frames []Frame
	free   []FrameID
	kind   ReplacementKind
	// CLOCK state.
	hand int
	// LRU state: tick per frame; larger = more recent.
	lruTick []uint64
	tick    uint64
	stats   Stats
}

// NewDRAM creates a pool of frames using the given replacement policy.
func NewDRAM(frames int, kind ReplacementKind) *DRAM {
	if frames <= 0 {
		panic(fmt.Sprintf("mem: non-positive frame count %d", frames))
	}
	d := &DRAM{
		frames:  make([]Frame, frames),
		free:    make([]FrameID, 0, frames),
		kind:    kind,
		lruTick: make([]uint64, frames),
	}
	for i := frames - 1; i >= 0; i-- {
		d.frames[i].Owner = -1
		d.free = append(d.free, FrameID(i))
	}
	return d
}

// Capacity returns the total number of frames.
func (d *DRAM) Capacity() int { return len(d.frames) }

// FreeFrames returns the number of unallocated frames.
func (d *DRAM) FreeFrames() int { return len(d.free) }

// InUseFrames returns the number of allocated frames.
func (d *DRAM) InUseFrames() int { return len(d.frames) - len(d.free) }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Frame returns a pointer to the frame's metadata. The pointer stays valid
// for the lifetime of the DRAM.
func (d *DRAM) Frame(id FrameID) *Frame {
	return &d.frames[id]
}

// Allocate takes a free frame for (owner, va). It returns NoFrame and false
// when the pool is exhausted; the caller must then evict via PickVictim +
// Release first. Newly allocated frames start Referenced (just-faulted pages
// are hot) unless prefetched is true.
func (d *DRAM) Allocate(owner int, va uint64, prefetched bool) (FrameID, bool) {
	if len(d.free) == 0 {
		return NoFrame, false
	}
	id := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	f := &d.frames[id]
	*f = Frame{
		Owner:      owner,
		VA:         va,
		Referenced: !prefetched,
		Prefetched: prefetched,
		InUse:      true,
	}
	d.stats.Allocations++
	d.touchPolicy(id, prefetched)
	return id, true
}

func (d *DRAM) touchPolicy(id FrameID, prefetched bool) {
	d.tick++
	if prefetched {
		// Prefetched-not-yet-used frames age as if old, so a wrong
		// prefetch is the first thing reclaimed.
		d.lruTick[id] = 0
		return
	}
	d.lruTick[id] = d.tick
}

// Touch records an access to an allocated frame: sets the reference bit,
// refreshes LRU recency, and clears the Prefetched mark. It reports whether
// this was the first touch of a prefetched frame (a swap-cache hit — the
// prefetch was useful, and in Linux terms the access is a minor fault).
func (d *DRAM) Touch(id FrameID, write bool) (firstPrefetchedTouch bool) {
	f := &d.frames[id]
	firstPrefetchedTouch = f.Prefetched
	f.Referenced = true
	f.Prefetched = false
	if write {
		f.Dirty = true
	}
	if d.kind == ReplaceLRU {
		// CLOCK never reads the recency ticks, and Touch runs once per
		// simulated memory access — keep the bookkeeping policy-gated.
		d.tick++
		d.lruTick[id] = d.tick
	}
	return firstPrefetchedTouch
}

// Pin marks a frame ineligible for eviction (page under DMA transfer).
func (d *DRAM) Pin(id FrameID) { d.frames[id].Pinned = true }

// Unpin clears the pin.
func (d *DRAM) Unpin(id FrameID) { d.frames[id].Pinned = false }

// PickVictim selects an in-use, unpinned frame for eviction according to the
// replacement policy, or NoFrame when every frame is pinned or free. The
// frame is NOT released; the caller inspects it (write-back, PTE update) and
// then calls Release.
func (d *DRAM) PickVictim() FrameID {
	switch d.kind {
	case ReplaceLRU:
		return d.pickLRU()
	default:
		return d.pickClock()
	}
}

func (d *DRAM) pickClock() FrameID {
	n := len(d.frames)
	// Two full sweeps guarantee termination: the first pass may clear all
	// reference bits, the second then finds a victim (unless all pinned).
	for pass := 0; pass < 2*n; pass++ {
		id := FrameID(d.hand)
		d.hand = (d.hand + 1) % n
		f := &d.frames[id]
		d.stats.ClockSweeps++
		if !f.InUse || f.Pinned {
			continue
		}
		if f.Referenced {
			f.Referenced = false // second chance
			continue
		}
		return id
	}
	return NoFrame
}

func (d *DRAM) pickLRU() FrameID {
	best := NoFrame
	var bestTick uint64 = ^uint64(0)
	for i := range d.frames {
		f := &d.frames[i]
		if !f.InUse || f.Pinned {
			continue
		}
		if d.lruTick[i] < bestTick {
			bestTick = d.lruTick[i]
			best = FrameID(i)
		}
	}
	return best
}

// Release frees a frame back to the pool, counting an eviction (and a
// write-back if it was dirty) when evicted is true.
func (d *DRAM) Release(id FrameID, evicted bool) {
	f := &d.frames[id]
	if !f.InUse {
		panic(fmt.Sprintf("mem: double free of frame %d", id))
	}
	if evicted {
		d.stats.Evictions++
		if f.Dirty {
			d.stats.Writebacks++
		}
	} else {
		d.stats.Frees++
	}
	*f = Frame{Owner: -1}
	d.free = append(d.free, id)
}

// OwnedFrames returns how many in-use frames belong to owner. O(capacity);
// used by metrics snapshots, not the hot path.
func (d *DRAM) OwnedFrames(owner int) int {
	n := 0
	for i := range d.frames {
		if d.frames[i].InUse && d.frames[i].Owner == owner {
			n++
		}
	}
	return n
}
