package preexec

import (
	"testing"

	"itsim/internal/cache"
	"itsim/internal/cpu"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

func newEngine() *Engine {
	return New(cpu.NewPreExecCache(cache.Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 4}))
}

// env builds a test Env over an explicit lookahead and a set of resident
// pages; llc records fills.
type testEnv struct {
	recs     []trace.Record
	resident map[uint64]bool // page-aligned VA → present
	pteINV   map[uint64]bool
	llc      map[uint64]bool // line-aligned → present
	fills    []uint64
	cleared  []uint64
	faultVA  uint64
	faultDst uint8
}

func (te *testEnv) env() *Env {
	if te.pteINV == nil {
		te.pteINV = map[uint64]bool{}
	}
	if te.llc == nil {
		te.llc = map[uint64]bool{}
	}
	return &Env{
		Window: [2][]trace.Record{te.recs},
		Page: func(va uint64) (bool, bool) {
			return te.resident[va&^0xFFF], te.pteINV[va&^0xFFF]
		},
		SetPTEINV: func(va uint64) { te.pteINV[va&^0xFFF] = true },
		ClearPTEINV: func(va uint64) {
			delete(te.pteINV, va&^0xFFF)
			te.cleared = append(te.cleared, va)
		},
		LLCContains: func(addr uint64) bool { return te.llc[addr&^63] },
		LLCFill: func(addr uint64) {
			te.llc[addr&^63] = true
			te.fills = append(te.fills, addr&^63)
		},
		FaultVA:  te.faultVA,
		FaultDst: te.faultDst,
	}
}

const bigWindow = 100 * sim.Microsecond

func TestTooSmallWindowDoesNothing(t *testing.T) {
	e := newEngine()
	te := &testEnv{faultVA: 0x1000}
	res := e.Run(cpu.CheckpointCost, te.env())
	if res.Used != 0 || res.Instrs != 0 {
		t.Fatalf("tiny window ran: %+v", res)
	}
}

func TestValidLoadWarmsCache(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Load, Gap: 2, Size: 8, Dst: 1, Src: 2},
		},
		resident: map[uint64]bool{0x2000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Instrs != 1 || res.Valid != 1 || res.Fills != 1 {
		t.Fatalf("res = %+v", res)
	}
	if len(te.fills) != 1 || te.fills[0] != 0x2000 {
		t.Fatalf("fills = %#v", te.fills)
	}
	if res.Used <= cpu.CheckpointCost {
		t.Fatalf("Used = %v", res.Used)
	}
}

func TestFaultPageLoadIsInvalid(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			// Load from the faulting page itself: invalid even though the
			// map says "resident" (it is mid-swap-in).
			{Addr: 0x1800, Kind: trace.Load, Size: 8, Dst: 4, Src: 2},
		},
		resident: map[uint64]bool{0x1000: true},
		faultVA:  0x1234, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 0 || res.Fills != 0 {
		t.Fatalf("fault-page load treated valid: %+v", res)
	}
}

func TestINVPropagationThroughRegisters(t *testing.T) {
	e := newEngine()
	// Faulting load poisons r0; the second load's address depends on r0 →
	// its dst r5 poisoned; third load uses r5 → poisoned too; a fourth,
	// independent load is valid.
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 5, Src: 0},
			{Addr: 0x3000, Kind: trace.Load, Size: 8, Dst: 6, Src: 5},
			{Addr: 0x4000, Kind: trace.Load, Size: 8, Dst: 7, Src: 9},
		},
		resident: map[uint64]bool{0x2000: true, 0x3000: true, 0x4000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Instrs != 3 {
		t.Fatalf("Instrs = %d", res.Instrs)
	}
	if res.Valid != 1 {
		t.Fatalf("Valid = %d, want only the independent load", res.Valid)
	}
}

func TestValidResultClearsINVChain(t *testing.T) {
	e := newEngine()
	// r0 poisoned by the fault; an independent valid load into r0 clears
	// it; a subsequent use of r0 is then valid.
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 0, Src: 3},
			{Addr: 0x3000, Kind: trace.Load, Size: 8, Dst: 1, Src: 0},
		},
		resident: map[uint64]bool{0x2000: true, 0x3000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 2 {
		t.Fatalf("Valid = %d, want 2 (overwrite clears INV)", res.Valid)
	}
}

func TestStoreInStorageGoesToPreExecCache(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			// Store to a swapped-out page (Figure 3a step 0).
			{Addr: 0x5000, Kind: trace.Store, Size: 8, Dst: 0, Src: 3},
			// Dependent load forwarded from the store buffer: INV.
			{Addr: 0x5000, Kind: trace.Load, Size: 8, Dst: 2, Src: 7},
		},
		resident: map[uint64]bool{},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 0 {
		t.Fatalf("Valid = %d, want 0", res.Valid)
	}
	if res.PoisonedPTEs == 0 {
		t.Fatal("store to storage did not poison its PTE")
	}
	// PTE poison must be cleared at episode end.
	if te.pteINV[0x5000] {
		t.Fatal("PTE INV not cleared by state recovery")
	}
}

func TestStoreForwardingValid(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Store, Size: 8, Dst: 0, Src: 3}, // valid store
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 2, Src: 7},  // forwarded: valid
		},
		resident: map[uint64]bool{0x2000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 2 {
		t.Fatalf("Valid = %d, want 2", res.Valid)
	}
}

func TestPoisonedStorePoisonsForwardedLoad(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			// Store whose source register is the fault's destination.
			{Addr: 0x2000, Kind: trace.Store, Size: 8, Dst: 0, Src: 9},
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 2, Src: 7},
		},
		resident: map[uint64]bool{0x2000: true},
		faultVA:  0x1000, faultDst: 9,
	}
	res := e.Run(bigWindow, te.env())
	// The store is invalid (src INV); the forwarded load inherits INV.
	if res.Valid != 0 {
		t.Fatalf("Valid = %d, want 0", res.Valid)
	}
}

func TestPTEINVBlocksCachedData(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x6000, Kind: trace.Load, Size: 8, Dst: 2, Src: 7},
		},
		resident: map[uint64]bool{0x6000: true},
		pteINV:   map[uint64]bool{0x6000: true},
		llc:      map[uint64]bool{0x6000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 0 {
		t.Fatalf("Valid = %d: PTE INV ignored for cached data", res.Valid)
	}
}

func TestWindowBudgetRespected(t *testing.T) {
	e := newEngine()
	recs := make([]trace.Record, 1000)
	for i := range recs {
		recs[i] = trace.Record{Addr: uint64(0x2000 + i*64), Kind: trace.Load, Gap: 10, Size: 8, Dst: uint8(i % 8), Src: 15}
	}
	resident := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		resident[uint64(0x2000+i*64)&^0xFFF] = true
	}
	te := &testEnv{recs: recs, resident: resident, faultVA: 0x1000, faultDst: 0}
	window := 3 * sim.Microsecond
	res := e.Run(window, te.env())
	if res.Used > window {
		t.Fatalf("Used %v exceeds window %v", res.Used, window)
	}
	if res.Instrs == 0 || res.Instrs == 1000 {
		t.Fatalf("Instrs = %d, want partial progress", res.Instrs)
	}
}

func TestStateRecoveryRestoresRegisters(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 3, Src: 0},
		},
		resident: map[uint64]bool{0x2000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	e.Run(bigWindow, te.env())
	if e.RF.CountINV() != 0 {
		t.Fatalf("architectural RF has %d INV bits after recovery", e.RF.CountINV())
	}
	if e.Shadow.Valid() {
		t.Fatal("shadow checkpoint still pending")
	}
	if e.SB.Len() != 0 {
		t.Fatal("store buffer not drained")
	}
}

func TestOverheadAccounting(t *testing.T) {
	e := newEngine()
	te := &testEnv{
		recs:     []trace.Record{{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 1, Src: 2}},
		resident: map[uint64]bool{0x2000: true},
		faultVA:  0x1000,
	}
	res := e.Run(bigWindow, te.env())
	if res.Overhead != cpu.CheckpointCost+cpu.RestoreCost {
		t.Fatalf("Overhead = %v", res.Overhead)
	}
	if res.Used <= res.Overhead {
		t.Fatalf("Used %v not above overhead %v", res.Used, res.Overhead)
	}
}

func TestClearPTECallback(t *testing.T) {
	e := newEngine()
	var cleared []uint64
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x5000, Kind: trace.Store, Size: 8, Dst: 0, Src: 3},
		},
		resident: map[uint64]bool{},
		faultVA:  0x1000,
	}
	e.Run(bigWindow, te.env())
	_ = cleared
	if len(te.cleared) != 1 || te.cleared[0] != 0x5000 {
		t.Fatalf("cleared = %#v", te.cleared)
	}
}

func TestFlushHardware(t *testing.T) {
	e := newEngine()
	e.PXC.Write(0x40, 8, false)
	e.SB.Insert(0x80, 8, false, nil)
	e.RF.MarkINV(1)
	e.FlushHardware()
	if present, _ := e.PXC.Read(0x40, 8); present {
		t.Fatal("PXC survived flush")
	}
	if e.SB.Len() != 0 || e.RF.CountINV() != 0 {
		t.Fatal("SB/RF survived flush")
	}
}

func TestCustomPerInstructionCost(t *testing.T) {
	e := newEngine()
	e.Costs.PerInstruction = 10 * sim.Nanosecond
	recs := make([]trace.Record, 100)
	for i := range recs {
		recs[i] = trace.Record{Addr: 0x2000, Kind: trace.Load, Gap: 0, Size: 8, Dst: 1, Src: 2}
	}
	te := &testEnv{recs: recs, resident: map[uint64]bool{0x2000: true}, faultVA: 0x1000}
	// Budget for ~10 instructions at 10 ns + probes.
	res := e.Run(cpu.CheckpointCost+cpu.RestoreCost+130*sim.Nanosecond, te.env())
	if res.Instrs == 0 || res.Instrs > 12 {
		t.Fatalf("custom per-instruction cost ignored: %d instrs", res.Instrs)
	}
}

func TestStoreBufferRetireIntoPXCDuringEpisode(t *testing.T) {
	// Overflowing the store buffer mid-episode retires entries into the
	// pre-execute cache through the engine's retire hook.
	e := newEngine()
	n := cpu.StoreBufferSize + 8
	recs := make([]trace.Record, n)
	resident := map[uint64]bool{}
	for i := range recs {
		addr := uint64(0x2000 + i*64)
		recs[i] = trace.Record{Addr: addr, Kind: trace.Store, Size: 8, Dst: 1, Src: 2}
		resident[addr&^0xFFF] = true
	}
	te := &testEnv{recs: recs, resident: resident, faultVA: 0x1000}
	res := e.Run(bigWindow, te.env())
	if res.Instrs != uint64(n) {
		t.Fatalf("Instrs = %d, want %d", res.Instrs, n)
	}
	// The oldest retired store's bytes are in the pre-execute cache.
	if present, inv := e.PXC.Read(0x2000, 8); !present || inv {
		t.Fatalf("retired store not in PXC: present=%v inv=%v", present, inv)
	}
}

func TestPreLoadAddressFromPoisonedRegister(t *testing.T) {
	// A load whose source register is poisoned must be invalid even if its
	// page is resident and cached.
	e := newEngine()
	te := &testEnv{
		recs: []trace.Record{
			{Addr: 0x2000, Kind: trace.Load, Size: 8, Dst: 1, Src: 0},
		},
		resident: map[uint64]bool{0x2000: true},
		llc:      map[uint64]bool{0x2000: true},
		faultVA:  0x1000, faultDst: 0,
	}
	res := e.Run(bigWindow, te.env())
	if res.Valid != 0 {
		t.Fatalf("poisoned-address load treated valid: %+v", res)
	}
}
