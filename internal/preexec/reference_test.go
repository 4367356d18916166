package preexec

import (
	"fmt"
	"reflect"
	"testing"

	"itsim/internal/cache"
	"itsim/internal/cpu"
	"itsim/internal/prng"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

// refEnv is the environment Run took before the window became slices and
// the two page-table reads one: a per-record Lookahead callback, and
// separate residency and INV-bit reads.
type refEnv struct {
	Lookahead   func(i int) (trace.Record, bool)
	PagePresent func(va uint64) bool
	PTEINV      func(va uint64) bool
	SetPTEINV   func(va uint64)
	ClearPTEINV func(va uint64)
	LLCContains func(addr uint64) bool
	LLCFill     func(addr uint64)
	FaultVA     uint64
	FaultDst    uint8
}

// refRun is Run as it was before the in-place window, kept as the
// reference Run must match in every effect.
func refRun(e *Engine, window sim.Time, env refEnv) Result {
	var res Result
	overhead := cpu.CheckpointCost + cpu.RestoreCost
	if window <= overhead {
		return res
	}
	e.RF.Reset()
	e.SB.Reset()
	e.Shadow.Checkpoint(&e.RF, 0, 0)
	e.RF.MarkINV(env.FaultDst)

	budget := window - overhead
	res.Overhead = overhead
	var used sim.Time
	faultPage := env.FaultVA &^ 0xFFF

	for i := 0; ; i++ {
		rec, ok := env.Lookahead(i)
		if !ok {
			break
		}
		cost := e.Costs.perInst(rec.Gap+1) + e.Costs.CacheProbe
		if used+cost > budget {
			break
		}
		used += cost
		res.Instrs++

		srcINV := e.RF.INV(rec.Src)
		page := rec.Addr &^ 0xFFF
		inStorage := page == faultPage || !env.PagePresent(rec.Addr)

		if rec.Kind == trace.Store {
			refPreStore(e, rec, srcINV, inStorage, env, &res, &used, budget)
		} else {
			refPreLoad(e, rec, srcINV, inStorage, env, &res, &used, budget)
		}
	}

	e.SB.Drain(func(addr uint64, size uint8, inv bool) {
		e.PXC.Write(addr, size, inv)
	})
	e.Shadow.Restore(&e.RF)
	res.PoisonedPTEs = uint64(len(e.poisoned))
	for _, va := range e.poisoned {
		if env.ClearPTEINV != nil {
			env.ClearPTEINV(va)
		}
	}
	e.poisoned = e.poisoned[:0]

	res.Used = used + overhead
	return res
}

func refPreStore(e *Engine, rec trace.Record, srcINV, inStorage bool, env refEnv, res *Result, used *sim.Time, budget sim.Time) {
	inv := srcINV || inStorage
	if inStorage {
		e.PXC.Write(rec.Addr, rec.Size, true)
		refPoison(e, rec.Addr, env)
		e.SB.Insert(rec.Addr, rec.Size, true, e.retire)
		return
	}
	e.SB.Insert(rec.Addr, rec.Size, inv, e.retire)
	if inv {
		refPoison(e, rec.Addr, env)
		return
	}
	res.Valid++
	if !env.LLCContains(rec.Addr) && *used+e.Costs.MemFill <= budget {
		env.LLCFill(rec.Addr)
		*used += e.Costs.MemFill
		res.Fills++
	}
}

func refPreLoad(e *Engine, rec trace.Record, srcINV, inStorage bool, env refEnv, res *Result, used *sim.Time, budget sim.Time) {
	if srcINV || inStorage {
		e.RF.MarkINV(rec.Dst)
		return
	}
	if found, inv := e.SB.Lookup(rec.Addr, rec.Size); found {
		if inv {
			e.RF.MarkINV(rec.Dst)
		} else {
			e.RF.ClearINV(rec.Dst)
			res.Valid++
		}
		return
	}
	if present, inv := e.PXC.Read(rec.Addr, rec.Size); present {
		if inv {
			e.RF.MarkINV(rec.Dst)
		} else {
			e.RF.ClearINV(rec.Dst)
			res.Valid++
		}
		return
	}
	if env.LLCContains(rec.Addr) {
		if env.PTEINV(rec.Addr) {
			e.RF.MarkINV(rec.Dst)
			return
		}
		e.RF.ClearINV(rec.Dst)
		res.Valid++
		return
	}
	if env.PTEINV(rec.Addr) {
		e.RF.MarkINV(rec.Dst)
		return
	}
	e.RF.ClearINV(rec.Dst)
	res.Valid++
	if *used+e.Costs.MemFill <= budget {
		env.LLCFill(rec.Addr)
		*used += e.Costs.MemFill
		res.Fills++
	}
}

func refPoison(e *Engine, va uint64, env refEnv) {
	if env.SetPTEINV != nil {
		env.SetPTEINV(va)
	}
	e.poisoned = append(e.poisoned, va)
}

// refPages is how many pages a case's addresses span; the fault page is
// one of them.
const refPages = 8

// refEpisode is one pre-execution episode of a case.
type refEpisode struct {
	window   sim.Time
	faultVA  uint64
	faultDst uint8
	recs     []trace.Record
	split    int // Window[0] = recs[:split]
}

// refCase is a machine state plus a run of episodes on one engine, so the
// pre-execute cache carries contents from one episode into the next.
type refCase struct {
	resident, pteINV map[uint64]bool // page → bit
	llc              map[uint64]bool // line → present
	episodes         []refEpisode
}

// byteSource reads a case's bytes, yielding zeros once they run out.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return s.b[s.i-1]
}

// decodeCase builds a case from arbitrary bytes: every byte string is a
// valid case, so the fuzzer explores structure directly.
func decodeCase(data []byte) refCase {
	src := &byteSource{b: data}
	c := refCase{resident: map[uint64]bool{}, pteINV: map[uint64]bool{}, llc: map[uint64]bool{}}
	resident, inv := src.next(), src.next()
	for pg := 0; pg < refPages; pg++ {
		va := uint64(pg) * 4096
		c.resident[va] = resident>>pg&1 != 0
		c.pteINV[va] = inv>>pg&1 != 0
	}
	for n := 1 + int(src.next()%3); n > 0; n-- {
		ep := refEpisode{
			// Up to ~5 µs past the overhead: from no activation to
			// windows that outlast every record.
			window:   cpu.CheckpointCost + cpu.RestoreCost + sim.Time(src.next())*20*sim.Nanosecond,
			faultVA:  uint64(src.next()%refPages)*4096 + uint64(src.next())*16,
			faultDst: src.next() % trace.NumRegs,
		}
		ep.recs = make([]trace.Record, int(src.next()))
		for i := range ep.recs {
			b0, b1, b2, b3 := src.next(), src.next(), src.next(), src.next()
			size := uint8(1) << (b0 >> 1 & 3)
			line := uint64(b1%refPages)*4096 + uint64(b1>>3)*64
			rec := trace.Record{
				Addr: line + uint64(b2&63)&^uint64(size-1),
				Gap:  uint32(b0 >> 4),
				Size: size,
				Kind: trace.Load,
				Dst:  b3 >> 4,
				Src:  b3 & 0x0F,
			}
			if b0&1 != 0 {
				rec.Kind = trace.Store
			}
			if b0&8 != 0 {
				c.llc[line] = true
			}
			ep.recs[i] = rec
		}
		ep.split = int(src.next()) % (len(ep.recs) + 1)
		c.episodes = append(c.episodes, ep)
	}
	return c
}

// refWorld is one side's machine state and the log of its mutating calls,
// each with the register INV bits at the moment of the call.
type refWorld struct {
	resident, pteINV, llc map[uint64]bool
	log                   []string
}

func newRefWorld(c refCase) *refWorld {
	cp := func(m map[uint64]bool) map[uint64]bool {
		out := make(map[uint64]bool, len(m))
		for k, v := range m {
			out[k] = v
		}
		return out
	}
	return &refWorld{resident: cp(c.resident), pteINV: cp(c.pteINV), llc: cp(c.llc)}
}

func (w *refWorld) record(e *Engine, op string, va uint64) {
	var rf uint16
	for r := 0; r < trace.NumRegs; r++ {
		if e.RF.INV(uint8(r)) {
			rf |= 1 << r
		}
	}
	w.log = append(w.log, fmt.Sprintf("%s %#x rf=%04x", op, va, rf))
}

func (w *refWorld) setINV(e *Engine) func(uint64) {
	return func(va uint64) { w.record(e, "set", va); w.pteINV[va&^0xFFF] = true }
}

func (w *refWorld) clearINV(e *Engine) func(uint64) {
	return func(va uint64) { w.record(e, "clear", va); w.pteINV[va&^0xFFF] = false }
}

func (w *refWorld) contains(addr uint64) bool { return w.llc[addr&^63] }

func (w *refWorld) fill(e *Engine) func(uint64) {
	return func(addr uint64) { w.record(e, "fill", addr); w.llc[addr&^63] = true }
}

// newRefEngine builds an engine with a small pre-execute cache (8 lines of
// 2 ways), so the order of its writes decides what it keeps.
func newRefEngine() *Engine {
	return New(cpu.NewPreExecCache(cache.Config{SizeBytes: 512, LineBytes: 64, Ways: 2}))
}

// checkMatchesReference runs c through Run and refRun on separate engines
// and worlds and fails on the first difference: a Result, the register
// INV bits, the SetPTEINV/ClearPTEINV/LLCFill call sequence, the world's
// final maps, or any pre-execute cache read afterwards.
func checkMatchesReference(t *testing.T, c refCase) {
	t.Helper()
	got, want := newRefEngine(), newRefEngine()
	gw, ww := newRefWorld(c), newRefWorld(c)
	for n, ep := range c.episodes {
		env := &Env{
			Window: [2][]trace.Record{ep.recs[:ep.split], ep.recs[ep.split:]},
			Page: func(va uint64) (bool, bool) {
				return gw.resident[va&^0xFFF], gw.pteINV[va&^0xFFF]
			},
			SetPTEINV:   gw.setINV(got),
			ClearPTEINV: gw.clearINV(got),
			LLCContains: gw.contains,
			LLCFill:     gw.fill(got),
			FaultVA:     ep.faultVA,
			FaultDst:    ep.faultDst,
		}
		renv := refEnv{
			Lookahead: func(i int) (trace.Record, bool) {
				if i < len(ep.recs) {
					return ep.recs[i], true
				}
				return trace.Record{}, false
			},
			PagePresent: func(va uint64) bool { return ww.resident[va&^0xFFF] },
			PTEINV:      func(va uint64) bool { return ww.pteINV[va&^0xFFF] },
			SetPTEINV:   ww.setINV(want),
			ClearPTEINV: ww.clearINV(want),
			LLCContains: ww.contains,
			LLCFill:     ww.fill(want),
			FaultVA:     ep.faultVA,
			FaultDst:    ep.faultDst,
		}
		gres, wres := got.Run(ep.window, env), refRun(want, ep.window, renv)
		if gres != wres {
			t.Fatalf("episode %d: Result %+v, reference %+v", n, gres, wres)
		}
		if got.RF != want.RF || got.SB.Len() != want.SB.Len() {
			t.Fatalf("episode %d: registers or store buffer differ after recovery", n)
		}
		if !reflect.DeepEqual(gw.log, ww.log) {
			t.Fatalf("episode %d: calls\n%v\nreference\n%v", n, gw.log, ww.log)
		}
		if !reflect.DeepEqual(gw.pteINV, ww.pteINV) || !reflect.DeepEqual(gw.llc, ww.llc) {
			t.Fatalf("episode %d: PTE INV or LLC state differs", n)
		}
		for _, rec := range ep.recs {
			gp, gi := got.PXC.Read(rec.Addr, rec.Size)
			wp, wi := want.PXC.Read(rec.Addr, rec.Size)
			if gp != wp || gi != wi {
				t.Fatalf("episode %d: pre-execute cache at %#x/%d: (%v,%v), reference (%v,%v)",
					n, rec.Addr, rec.Size, gp, gi, wp, wi)
			}
		}
	}
}

// TestRunMatchesReference: on random windows of loads and stores over
// eight pages (the fault page among them), random residency and PTE INV
// bits, random budgets and a random split of the window into its two
// pieces, Run has exactly the reference's effects.
func TestRunMatchesReference(t *testing.T) {
	rng := prng.New(0x9E37_79B9)
	for i := 0; i < 2000; i++ {
		data := make([]byte, 8+rng.Intn(1100))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		checkMatchesReference(t, decodeCase(data))
	}
}

// FuzzPreExecMatchesReference is TestRunMatchesReference over fuzzed case
// bytes (see decodeCase).
func FuzzPreExecMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0F, 0x03, 1, 200, 2, 5, 7, 4,
		0x01, 0x09, 0x00, 0x23, 0x00, 0x0A, 0x08, 0x45, 0x08, 0x1A, 0x10, 0x07, 2})
	rng := prng.New(7)
	for i := 0; i < 4; i++ {
		data := make([]byte, 64+rng.Intn(512))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesReference(t, decodeCase(data))
	})
}
