// Package cpu models the microarchitectural state the fault-aware
// pre-execute policy manipulates (paper §3.4.2–§3.4.3):
//
//   - a register file extended with per-register INV bits;
//   - a shadow register file used by the state-recovery policy to
//     checkpoint/restore architectural state (plus the branch-history
//     register and return-address stack) around pre-execution;
//   - a store buffer whose retired entries drain into
//   - a pre-execute cache with an INV bit per byte, which pre-execute loads
//     consult before trusting forwarded store data.
//
// Pre-execute stores never modify the real CPU cache or memory; their
// results live only in the store buffer and pre-execute cache, exactly as
// the paper requires for correctness.
package cpu

import (
	"fmt"

	"itsim/internal/cache"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

// Timing constants for the state-recovery policy (§3.4.3). Checkpointing is
// a register-file-wide copy to the shadow RF; the paper bounds kernel-side
// transitions at "hundreds of nanoseconds".
const (
	// CheckpointCost is charged when pre-execution begins.
	CheckpointCost = 60 * sim.Nanosecond
	// RestoreCost is charged when pre-execution ends and the shadow state
	// (including branch history register and return address stack) is
	// restored.
	RestoreCost = 60 * sim.Nanosecond
)

// RegisterFile tracks the INV (invalid/bogus-data) bit of each
// architectural register during pre-execution.
type RegisterFile struct {
	inv [trace.NumRegs]bool
}

// Reset clears every INV bit.
func (r *RegisterFile) Reset() { r.inv = [trace.NumRegs]bool{} }

// MarkINV sets register reg's INV bit.
func (r *RegisterFile) MarkINV(reg uint8) { r.inv[reg%trace.NumRegs] = true }

// ClearINV clears register reg's INV bit (a valid result overwrote it).
func (r *RegisterFile) ClearINV(reg uint8) { r.inv[reg%trace.NumRegs] = false }

// INV reports register reg's INV bit.
func (r *RegisterFile) INV(reg uint8) bool { return r.inv[reg%trace.NumRegs] }

// CountINV returns how many registers are currently poisoned.
func (r *RegisterFile) CountINV() int {
	n := 0
	for _, b := range r.inv {
		if b {
			n++
		}
	}
	return n
}

// Shadow is the shadow register file of the state-recovery policy. It holds
// a checkpoint of the architectural register state taken when ITS activates.
type Shadow struct {
	saved RegisterFile
	// PC and SP stand in for the full architectural context (program
	// counter, stack pointer, branch history register, return address
	// stack) — the timing model only needs the copy costs, but keeping
	// real fields lets tests verify restore fidelity.
	PC, SP uint64
	valid  bool
}

// Checkpoint copies rf (and pc/sp) into the shadow file.
func (s *Shadow) Checkpoint(rf *RegisterFile, pc, sp uint64) {
	s.saved = *rf
	s.PC, s.SP = pc, sp
	s.valid = true
}

// Restore writes the checkpoint back into rf and returns pc, sp. It panics
// if no checkpoint exists — restoring stale state would corrupt the
// simulated process, the very bug the state-recovery policy exists to
// prevent.
func (s *Shadow) Restore(rf *RegisterFile) (pc, sp uint64) {
	if !s.valid {
		panic("cpu: Restore without Checkpoint")
	}
	*rf = s.saved
	s.valid = false
	return s.PC, s.SP
}

// Valid reports whether a checkpoint is pending.
func (s *Shadow) Valid() bool { return s.valid }

// StoreBufferSize is the number of in-flight store entries (Skylake-class
// cores have 56; the exact figure only bounds forwarding distance).
const StoreBufferSize = 56

type storeEntry struct {
	addr  uint64
	size  uint8
	inv   bool
	valid bool
}

// StoreBuffer holds pre-executed stores awaiting retirement. Retired
// entries drain into the pre-execute cache via Retire's callback.
type StoreBuffer struct {
	entries [StoreBufferSize]storeEntry
	head    int // oldest
	count   int
}

// Reset empties the buffer.
func (b *StoreBuffer) Reset() {
	*b = StoreBuffer{}
}

// Len returns the number of buffered stores.
func (b *StoreBuffer) Len() int { return b.count }

// Insert records a pre-executed store. When the buffer is full the oldest
// entry retires first through retire (which the pre-execute engine uses to
// move it into the pre-execute cache with its INV status).
func (b *StoreBuffer) Insert(addr uint64, size uint8, inv bool, retire func(addr uint64, size uint8, inv bool)) {
	if b.count == StoreBufferSize {
		e := b.entries[b.head]
		b.head = (b.head + 1) % StoreBufferSize
		b.count--
		if retire != nil && e.valid {
			retire(e.addr, e.size, e.inv)
		}
	}
	idx := (b.head + b.count) % StoreBufferSize
	b.entries[idx] = storeEntry{addr: addr, size: size, inv: inv, valid: true}
	b.count++
}

// Lookup searches newest-to-oldest for a store overlapping [addr,
// addr+size). It returns (found, inv-of-youngest-overlap).
func (b *StoreBuffer) Lookup(addr uint64, size uint8) (found, inv bool) {
	for i := b.count - 1; i >= 0; i-- {
		e := &b.entries[(b.head+i)%StoreBufferSize]
		if !e.valid {
			continue
		}
		if overlap(addr, size, e.addr, e.size) {
			return true, e.inv
		}
	}
	return false, false
}

// Drain retires every buffered store through retire, oldest first.
func (b *StoreBuffer) Drain(retire func(addr uint64, size uint8, inv bool)) {
	for i := 0; i < b.count; i++ {
		e := &b.entries[(b.head+i)%StoreBufferSize]
		if retire != nil && e.valid {
			retire(e.addr, e.size, e.inv)
		}
	}
	b.Reset()
}

func overlap(aAddr uint64, aSize uint8, bAddr uint64, bSize uint8) bool {
	return aAddr < bAddr+uint64(bSize) && bAddr < aAddr+uint64(aSize)
}

// PreExecCache is the pre-execute cache: a set-associative cache whose lines
// carry one INV bit per byte (§3.4.2, [11]). It is only accessible during
// pre-execution. Lines come from retired pre-execute stores.
type PreExecCache struct {
	tags *cache.Cache
	// inv holds each tag slot's byte-INV mask (bit i = byte i of the
	// line), parallel to the tag array. Installing a line overwrites its
	// slot's mask, so an evicted or flushed line leaves a stale mask only
	// under an invalid tag, which no lookup returns.
	inv       []uint64
	lineBytes int
}

// MaxPreExecLineBytes is the widest line a pre-execute cache supports: one
// uint64 INV mask per line holds one bit per byte.
const MaxPreExecLineBytes = 64

// NewPreExecCache builds a pre-execute cache of the given geometry (for
// Sync_Runahead and ITS the paper uses half the 8 MB LLC). Like cache.New it
// panics on a geometry it cannot model: lines wider than
// MaxPreExecLineBytes.
func NewPreExecCache(cfg cache.Config) *PreExecCache {
	if cfg.LineBytes > MaxPreExecLineBytes {
		panic(fmt.Sprintf("cpu: pre-execute cache line of %d bytes exceeds the %d-bit INV mask", cfg.LineBytes, MaxPreExecLineBytes))
	}
	return &PreExecCache{
		tags:      cache.New(cfg),
		inv:       make([]uint64, cfg.SizeBytes/cfg.LineBytes),
		lineBytes: cfg.LineBytes,
	}
}

// Config returns the cache geometry.
func (p *PreExecCache) Config() cache.Config { return p.tags.Config() }

// Stats exposes the underlying tag-array counters.
func (p *PreExecCache) Stats() cache.Stats { return p.tags.Stats() }

// ValidLines returns the number of lines currently present (gauge sampling).
func (p *PreExecCache) ValidLines() int { return p.tags.ValidLines() }

func (p *PreExecCache) byteMask(addr uint64, size uint8) uint64 {
	off := int(addr) & (p.lineBytes - 1)
	n := int(size)
	if off+n > p.lineBytes {
		n = p.lineBytes - off
	}
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << off
}

// Write installs the bytes of a retired pre-execute store, setting or
// clearing their INV bits according to the store's status (§3.4.2 step 3).
// A hit counts one access and one hit; a miss counts one fill (and any
// eviction) but no access.
func (p *PreExecCache) Write(addr uint64, size uint8, inv bool) {
	slot := p.tags.LookupSlot(addr)
	if slot < 0 {
		slot = p.tags.InstallSlot(addr)
		// A fresh line starts with every byte invalid: only the written
		// bytes hold (possibly) valid pre-executed data.
		p.inv[slot] = ^uint64(0)
	}
	mask := p.byteMask(addr, size)
	if inv {
		p.inv[slot] |= mask
	} else {
		p.inv[slot] &^= mask
	}
}

// Read checks whether [addr, addr+size) is present and returns
// (present, anyByteINV). A pre-execute load that hits an INV byte is itself
// invalid (§3.4.2 load step 2). A hit counts one access and one hit; a miss
// counts nothing.
func (p *PreExecCache) Read(addr uint64, size uint8) (present, inv bool) {
	slot := p.tags.LookupSlot(addr)
	if slot < 0 {
		return false, false
	}
	return true, p.inv[slot]&p.byteMask(addr, size) != 0
}

// Flush empties the cache (between pre-execution episodes of different
// processes the pre-execute state is not meaningful).
func (p *PreExecCache) Flush() { p.tags.Flush() }

// Reset empties the cache and zeroes its counters, as a new cache of the
// same geometry would start.
func (p *PreExecCache) Reset() { p.tags.Reset() }
