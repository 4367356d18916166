package cpu

import (
	"testing"
	"testing/quick"

	"itsim/internal/cache"
	"itsim/internal/prng"
	"itsim/internal/trace"
)

func TestRegisterFileINV(t *testing.T) {
	var rf RegisterFile
	if rf.CountINV() != 0 {
		t.Fatal("fresh RF has INV bits")
	}
	rf.MarkINV(3)
	if !rf.INV(3) || rf.INV(4) || rf.CountINV() != 1 {
		t.Fatal("MarkINV wrong")
	}
	rf.ClearINV(3)
	if rf.INV(3) || rf.CountINV() != 0 {
		t.Fatal("ClearINV wrong")
	}
	// Register ids wrap modulo NumRegs.
	rf.MarkINV(trace.NumRegs + 2)
	if !rf.INV(2) {
		t.Fatal("register id wrap failed")
	}
	rf.Reset()
	if rf.CountINV() != 0 {
		t.Fatal("Reset left INV bits")
	}
}

func TestShadowCheckpointRestore(t *testing.T) {
	var rf RegisterFile
	var sh Shadow
	rf.MarkINV(1)
	rf.MarkINV(5)
	sh.Checkpoint(&rf, 0x400000, 0x7fff0000)
	if !sh.Valid() {
		t.Fatal("checkpoint not valid")
	}
	rf.MarkINV(9)
	rf.ClearINV(1)
	pc, sp := sh.Restore(&rf)
	if pc != 0x400000 || sp != 0x7fff0000 {
		t.Fatalf("restored pc/sp = %#x/%#x", pc, sp)
	}
	if !rf.INV(1) || !rf.INV(5) || rf.INV(9) {
		t.Fatal("register state not restored")
	}
	if sh.Valid() {
		t.Fatal("shadow still valid after Restore")
	}
}

func TestRestoreWithoutCheckpointPanics(t *testing.T) {
	var rf RegisterFile
	var sh Shadow
	defer func() {
		if recover() == nil {
			t.Fatal("Restore without Checkpoint did not panic")
		}
	}()
	sh.Restore(&rf)
}

func TestStoreBufferLookup(t *testing.T) {
	var sb StoreBuffer
	if f, _ := sb.Lookup(0x100, 8); f {
		t.Fatal("empty buffer forwarded")
	}
	sb.Insert(0x100, 8, false, nil)
	if f, inv := sb.Lookup(0x100, 8); !f || inv {
		t.Fatalf("lookup = %v,%v", f, inv)
	}
	// Overlap detection.
	if f, _ := sb.Lookup(0x104, 8); !f {
		t.Fatal("partial overlap not forwarded")
	}
	if f, _ := sb.Lookup(0x108, 8); f {
		t.Fatal("non-overlapping address forwarded")
	}
	// Youngest-wins on overlapping stores.
	sb.Insert(0x100, 8, true, nil)
	if _, inv := sb.Lookup(0x100, 8); !inv {
		t.Fatal("youngest store's INV status not returned")
	}
}

func TestStoreBufferRetireOnOverflow(t *testing.T) {
	var sb StoreBuffer
	var retired []uint64
	retire := func(addr uint64, size uint8, inv bool) { retired = append(retired, addr) }
	for i := 0; i < StoreBufferSize+3; i++ {
		sb.Insert(uint64(i)*64, 8, false, retire)
	}
	if len(retired) != 3 {
		t.Fatalf("retired %d entries, want 3", len(retired))
	}
	for i, a := range retired {
		if a != uint64(i)*64 {
			t.Fatalf("retired out of order: %v", retired)
		}
	}
	if sb.Len() != StoreBufferSize {
		t.Fatalf("Len = %d, want %d", sb.Len(), StoreBufferSize)
	}
}

func TestStoreBufferDrain(t *testing.T) {
	var sb StoreBuffer
	sb.Insert(0x10, 4, true, nil)
	sb.Insert(0x20, 4, false, nil)
	var drained int
	sb.Drain(func(addr uint64, size uint8, inv bool) { drained++ })
	if drained != 2 || sb.Len() != 0 {
		t.Fatalf("drained=%d len=%d", drained, sb.Len())
	}
}

func pxcConfig() cache.Config {
	return cache.Config{SizeBytes: 8192, LineBytes: 64, Ways: 4}
}

func TestPreExecCacheWriteRead(t *testing.T) {
	p := NewPreExecCache(pxcConfig())
	if present, _ := p.Read(0x1000, 8); present {
		t.Fatal("fresh cache has data")
	}
	p.Write(0x1000, 8, false)
	present, inv := p.Read(0x1000, 8)
	if !present || inv {
		t.Fatalf("valid write read back present=%v inv=%v", present, inv)
	}
	// Unwritten bytes of the same line are INV.
	if _, inv := p.Read(0x1008, 8); !inv {
		t.Fatal("unwritten bytes not INV")
	}
	// INV write poisons its bytes.
	p.Write(0x1000, 4, true)
	if _, inv := p.Read(0x1000, 4); !inv {
		t.Fatal("INV store's bytes not poisoned")
	}
	// Bytes 4..8 still valid.
	if _, inv := p.Read(0x1004, 4); inv {
		t.Fatal("valid bytes poisoned by partial INV write")
	}
}

func TestPreExecCacheEvictionDropsINVState(t *testing.T) {
	cfg := cache.Config{SizeBytes: 512, LineBytes: 64, Ways: 2} // 4 sets... 8 lines/2 = 4 sets
	p := NewPreExecCache(cfg)
	sets := uint64(cfg.SizeBytes / cfg.LineBytes / cfg.Ways)
	// Fill one set beyond capacity: 3 lines mapping to set 0.
	for k := uint64(0); k < 3; k++ {
		p.Write(k*sets*64, 8, false)
	}
	// The first line was evicted.
	if present, _ := p.Read(0, 8); present {
		t.Fatal("evicted line still present")
	}
	// Re-writing it starts from all-INV again.
	p.Write(0, 8, false)
	if _, inv := p.Read(8, 8); !inv {
		t.Fatal("refilled line inherited stale valid bytes")
	}
}

func TestPreExecCacheLineStraddle(t *testing.T) {
	p := NewPreExecCache(pxcConfig())
	// A write at the end of a line is clipped to the line.
	p.Write(0x103C, 8, false) // bytes 60..63 valid
	if _, inv := p.Read(0x103C, 4); inv {
		t.Fatal("clipped write's in-line bytes not valid")
	}
	// The next line was never written.
	if present, _ := p.Read(0x1040, 4); present {
		t.Fatal("write leaked into next line")
	}
}

func TestPreExecCacheFlush(t *testing.T) {
	p := NewPreExecCache(pxcConfig())
	p.Write(0x40, 8, false)
	p.Flush()
	if present, _ := p.Read(0x40, 8); present {
		t.Fatal("Flush left contents")
	}
}

// Property: after writing (addr, size, inv), reading the same range returns
// present with exactly that INV status.
func TestPreExecCacheWriteReadProperty(t *testing.T) {
	p := NewPreExecCache(pxcConfig())
	f := func(addr uint32, size uint8, inv bool) bool {
		if size == 0 {
			size = 1
		}
		if size > 64 {
			size %= 64
			if size == 0 {
				size = 1
			}
		}
		a := uint64(addr)
		// Clip to stay inside a line (the cache clips writes; reads of a
		// clipped range would span two lines).
		off := int(a) & 63
		if off+int(size) > 64 {
			size = uint8(64 - off)
		}
		p.Write(a, size, inv)
		present, gotINV := p.Read(a, size)
		return present && gotINV == inv
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// mapPreExec is the reference pre-execute cache: a tag-only cache plus a map
// from present line to byte-INV mask, entries dropped on eviction and the
// map remade on flush. The slot-indexed masks must reproduce it exactly.
type mapPreExec struct {
	cfg  cache.Config
	tags *cache.Cache
	inv  map[uint64]uint64
}

func newMapPreExec(cfg cache.Config) *mapPreExec {
	return &mapPreExec{cfg: cfg, tags: cache.New(cfg), inv: make(map[uint64]uint64)}
}

// mask sets bit b for every byte b of [addr, addr+size) inside addr's line.
func (m *mapPreExec) mask(addr uint64, size uint8) uint64 {
	lb := uint64(m.cfg.LineBytes)
	var mask uint64
	for b := addr % lb; b < addr%lb+uint64(size) && b < lb; b++ {
		mask |= 1 << b
	}
	return mask
}

func (m *mapPreExec) write(addr uint64, size uint8, inv bool) {
	line := m.tags.LineOf(addr)
	if !m.tags.Contains(addr) {
		if evicted, was := m.tags.Fill(addr); was {
			delete(m.inv, evicted)
		}
		m.inv[line] = ^uint64(0)
	} else {
		m.tags.Access(addr)
	}
	if inv {
		m.inv[line] |= m.mask(addr, size)
	} else {
		m.inv[line] &^= m.mask(addr, size)
	}
}

func (m *mapPreExec) read(addr uint64, size uint8) (present, inv bool) {
	if !m.tags.Contains(addr) {
		return false, false
	}
	m.tags.Access(addr)
	return true, m.inv[m.tags.LineOf(addr)]&m.mask(addr, size) != 0
}

// TestPreExecCacheMatchesMapModel drives PreExecCache and the map model with
// the same random Write/Read/Flush/Reset sequences over 4× as many lines as
// the cache holds, so sets overflow and evict, and compares every Read and
// the Stats after every operation. The geometries cover both recency
// representations and lines narrower than the 64-bit mask.
func TestPreExecCacheMatchesMapModel(t *testing.T) {
	for _, cfg := range []cache.Config{
		{SizeBytes: 512, LineBytes: 64, Ways: 2},
		{SizeBytes: 2048, LineBytes: 16, Ways: 8},
		{SizeBytes: 4096, LineBytes: 32, Ways: 32},
	} {
		lines := uint64(4 * cfg.SizeBytes / cfg.LineBytes)
		f := func(seed uint64) bool {
			p, m := NewPreExecCache(cfg), newMapPreExec(cfg)
			r := prng.New(seed)
			for i := 0; i < 3000; i++ {
				addr := r.Uint64n(lines)*uint64(cfg.LineBytes) + r.Uint64n(uint64(cfg.LineBytes))
				size := uint8(1 + r.Intn(16))
				if r.Intn(16) == 0 {
					size = uint8(1 + r.Intn(255)) // clipped at the line end
				}
				switch op := r.Intn(100); {
				case op < 50:
					inv := r.Intn(2) == 0
					p.Write(addr, size, inv)
					m.write(addr, size, inv)
				case op < 96:
					gp, gi := p.Read(addr, size)
					wp, wi := m.read(addr, size)
					if gp != wp || gi != wi {
						t.Logf("%+v seed %d op %d: Read(%#x, %d) = (%v, %v), model (%v, %v)",
							cfg, seed, i, addr, size, gp, gi, wp, wi)
						return false
					}
				case op < 98:
					p.Flush()
					m.tags.Flush()
					m.inv = make(map[uint64]uint64)
				default:
					p.Reset()
					m = newMapPreExec(cfg)
				}
				if p.Stats() != m.tags.Stats() || p.ValidLines() != m.tags.ValidLines() {
					t.Logf("%+v seed %d op %d: stats %+v, model %+v", cfg, seed, i, p.Stats(), m.tags.Stats())
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Errorf("%+v: %v", cfg, err)
		}
	}
}

// TestPreExecCacheRejectsWideLines: one 64-bit mask per line cannot hold the
// INV bits of a wider line, so the constructor refuses the geometry.
func TestPreExecCacheRejectsWideLines(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPreExecCache accepted 128-byte lines")
		}
	}()
	NewPreExecCache(cache.Config{SizeBytes: 8192, LineBytes: 128, Ways: 4})
}

func TestOverlapHelper(t *testing.T) {
	cases := []struct {
		aAddr uint64
		aSize uint8
		bAddr uint64
		bSize uint8
		want  bool
	}{
		{0, 8, 0, 8, true},
		{0, 8, 7, 1, true},
		{0, 8, 8, 8, false},
		{8, 8, 0, 8, false},
		{4, 2, 5, 1, true},
	}
	for _, c := range cases {
		if got := overlap(c.aAddr, c.aSize, c.bAddr, c.bSize); got != c.want {
			t.Errorf("overlap(%d,%d,%d,%d) = %v", c.aAddr, c.aSize, c.bAddr, c.bSize, got)
		}
	}
}
