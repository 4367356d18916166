// Package preexec implements the fault-aware pre-execute policy (§3.4.2)
// and the state-recovery policy (§3.4.3): runahead-style execution of the
// instructions following a faulting access, for the duration of the
// synchronous I/O wait, with INV (invalid) marks propagated through
// registers, the store buffer, the pre-execute cache and page-table entries
// so that nothing dependent on the faulting (bogus) data is trusted.
//
// The observable effect — and the whole point — is cache warming: valid
// pre-executed loads and stores pull their lines into the CPU cache, so
// when real execution resumes after the I/O it hits where it would have
// missed. Pre-execute stores never touch real memory or the real cache
// hierarchy's data; they live in the store buffer and pre-execute cache
// only.
package preexec

import (
	"itsim/internal/cpu"
	"itsim/internal/sim"
	"itsim/internal/trace"
)

// Env is the machine state the engine consults: the upcoming records as
// slices read in place, and callbacks for the page-table and cache probes,
// so the engine stays independent of the machine's internals.
type Env struct {
	// Window holds the records after the faulting one in program order:
	// Window[0], then Window[1]. The executor's lookahead ring wraps, so
	// the window can come in two pieces; either may be empty.
	Window [2][]trace.Record
	// Page reads the page-table entry of va once: present reports the
	// page resident in DRAM (false ⇒ the data is in the storage device ⇒
	// invalid), inv its INV bit.
	Page func(va uint64) (present, inv bool)
	// SetPTEINV sets the INV bit of va's page-table entry.
	SetPTEINV func(va uint64)
	// ClearPTEINV clears the INV bit of va's page-table entry; the
	// state-recovery pass invokes it for every PTE the episode poisoned.
	ClearPTEINV func(va uint64)
	// LLCContains reports line presence without recency update.
	LLCContains func(addr uint64) bool
	// LLCFill installs a line (cache warming) — the engine's useful work.
	LLCFill func(addr uint64)
	// FaultVA is the faulting access's address; its page is by definition
	// not present, and the faulting load's destination register is the
	// initial INV source.
	FaultVA uint64
	// FaultDst is the destination register of the faulting instruction.
	FaultDst uint8
}

// Costs parameterize the engine's timing.
type Costs struct {
	// PerInstruction is the pre-execution cost of one instruction.
	PerInstruction sim.Time
	// CacheProbe is the cost of checking the store buffer / pre-execute
	// cache / LLC for one access.
	CacheProbe sim.Time
	// MemFill is the DRAM latency paid to warm a line into the LLC.
	MemFill sim.Time
}

// DefaultCosts uses the machine model's standard timing (0.5 ns/instruction
// ≈ a 2 GHz core at IPC 1, 2 ns probes, 50 ns DRAM fills).
func DefaultCosts() Costs {
	return Costs{
		PerInstruction: sim.Time(1) / 2, // rounds to 0; see perInst()
		CacheProbe:     2 * sim.Nanosecond,
		MemFill:        50 * sim.Nanosecond,
	}
}

// perInst returns the per-instruction cost in half-nanosecond resolution:
// costs accumulate in picosecond-free integer ns, so we charge 1 ns per two
// instructions.
func (c Costs) perInst(n uint32) sim.Time {
	if c.PerInstruction > 0 {
		return c.PerInstruction * sim.Time(n)
	}
	return sim.Time(n) / 2
}

// Result reports one pre-execution episode.
type Result struct {
	// Used is the busy-wait time consumed (≤ the window given to Run,
	// including checkpoint/restore overhead).
	Used sim.Time
	// Overhead is the state-recovery portion of Used.
	Overhead sim.Time
	// Instrs is the number of records examined (pre-executed or skipped).
	Instrs uint64
	// Valid is the number of records whose access was valid.
	Valid uint64
	// Fills is the number of LLC lines warmed.
	Fills uint64
	// PoisonedPTEs is the number of page-table INV bits set.
	PoisonedPTEs uint64
}

// Engine holds the microarchitectural state pre-execution uses. One engine
// exists per simulated machine (the hardware is shared; its contents are
// flushed between episodes of different processes by the machine).
type Engine struct {
	RF     cpu.RegisterFile
	Shadow cpu.Shadow
	SB     cpu.StoreBuffer
	PXC    *cpu.PreExecCache
	Costs  Costs

	// poisoned accumulates VAs whose PTE INV bit was set during the
	// episode, so Run can clear them at exit (the bit is only meaningful
	// during pre-execution).
	poisoned []uint64
}

// New builds an engine around the given pre-execute cache.
func New(pxc *cpu.PreExecCache) *Engine {
	return &Engine{PXC: pxc, Costs: DefaultCosts()}
}

// Run pre-executes upcoming instructions within the busy-wait window and
// returns the episode report. State recovery at episode end restores the
// register file and clears every PTE INV bit the episode set (via
// env.ClearPTEINV).
func (e *Engine) Run(window sim.Time, env *Env) Result {
	var res Result
	overhead := cpu.CheckpointCost + cpu.RestoreCost
	if window <= overhead {
		return res // not worth activating (§3.2: ITS must not impede progress)
	}
	e.RF.Reset()
	e.SB.Reset()
	e.Shadow.Checkpoint(&e.RF, 0, 0)
	// The faulting load's destination holds bogus data: the initial INV.
	e.RF.MarkINV(env.FaultDst)

	budget := window - overhead
	res.Overhead = overhead
	var used sim.Time
	faultPage := env.FaultVA &^ 0xFFF

scan:
	for _, seg := range env.Window {
		for i := range seg {
			rec := &seg[i]
			cost := e.Costs.perInst(rec.Gap+1) + e.Costs.CacheProbe
			if used+cost > budget {
				break scan
			}
			used += cost
			res.Instrs++
			srcINV := e.RF.INV(rec.Src)
			onFaultPage := rec.Addr&^0xFFF == faultPage
			if rec.Kind == trace.Store {
				e.preStore(rec, srcINV, onFaultPage, env, &res, &used, budget)
			} else {
				e.preLoad(rec, srcINV, onFaultPage, env, &res, &used, budget)
			}
		}
	}

	// State recovery: drain the store buffer into the pre-execute cache,
	// restore the architectural state, clear the PTE poison.
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

// preStore implements Figure 3a. Step 0 depends on residency, so a store
// reads its PTE unless it is on the faulting page, in storage by definition.
func (e *Engine) preStore(rec *trace.Record, srcINV, onFaultPage bool, env *Env, res *Result, used *sim.Time, budget sim.Time) {
	inStorage := onFaultPage
	if !inStorage {
		present, _ := env.Page(rec.Addr)
		inStorage = !present
	}
	if inStorage {
		// Step 0: data in storage — allocate a pre-execute cache line
		// and mark the written bytes INV; also poison the PTE.
		e.PXC.Write(rec.Addr, rec.Size, true)
		e.poison(rec.Addr, env)
		e.SB.Insert(rec.Addr, rec.Size, true, e.retire)
		return
	}
	// Step 1: data in DRAM or cache — the store is valid unless its source
	// register is poisoned; result goes to the store buffer with its INV
	// status.
	e.SB.Insert(rec.Addr, rec.Size, srcINV, e.retire)
	if srcINV {
		e.poison(rec.Addr, env)
		return
	}
	res.Valid++
	// Step 2: in memory but not in cache — fetch the line (warming).
	if !env.LLCContains(rec.Addr) && *used+e.Costs.MemFill <= budget {
		env.LLCFill(rec.Addr)
		*used += e.Costs.MemFill
		res.Fills++
	}
}

// preLoad implements Figure 3b. A load whose address register is INV takes
// step 0 whatever its page holds; any other load reads its PTE once, for
// residency and the INV bit (nothing before step 3 writes a PTE).
func (e *Engine) preLoad(rec *trace.Record, srcINV, onFaultPage bool, env *Env, res *Result, used *sim.Time, budget sim.Time) {
	if srcINV || onFaultPage {
		// Step 0: address depends on bogus data, or data in storage.
		e.RF.MarkINV(rec.Dst)
		return
	}
	present, pteINV := env.Page(rec.Addr)
	if !present {
		e.RF.MarkINV(rec.Dst) // step 0: data in storage
		return
	}
	// Steps 1–2: forwarded from the store buffer, else the pre-execute
	// cache, with the forwarded bytes' INV status. Step 3: in the CPU's
	// main cache — trust it unless the PTE says the page holds bogus data.
	// Step 4: only in memory — the same test, then move the line into the
	// cache (warming).
	forwarded, inv := e.SB.Lookup(rec.Addr, rec.Size)
	if !forwarded {
		forwarded, inv = e.PXC.Read(rec.Addr, rec.Size)
	}
	if !forwarded {
		inv = pteINV
	}
	if inv {
		e.RF.MarkINV(rec.Dst)
		return
	}
	e.RF.ClearINV(rec.Dst)
	res.Valid++
	if !forwarded && !env.LLCContains(rec.Addr) && *used+e.Costs.MemFill <= budget {
		env.LLCFill(rec.Addr)
		*used += e.Costs.MemFill
		res.Fills++
	}
}

func (e *Engine) retire(addr uint64, size uint8, inv bool) {
	e.PXC.Write(addr, size, inv)
}

func (e *Engine) poison(va uint64, env *Env) {
	if env.SetPTEINV != nil {
		env.SetPTEINV(va)
	}
	e.poisoned = append(e.poisoned, va)
}

// FlushHardware clears the pre-execute cache (e.g. when the machine
// switches which process owns the core, the stale pre-execute contents are
// meaningless).
func (e *Engine) FlushHardware() {
	e.PXC.Flush()
	e.SB.Reset()
	e.RF.Reset()
}
