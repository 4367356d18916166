package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"itsim/internal/sim"
)

// The reference model of the run queue: a slice of registered processes
// searched by pid and a slice of Ready pids in dispatch order. It shares no
// code with RR, so a disagreement between the two is an RR bug (or a model
// bug, which the hand-written tests in sched_test.go pin down).

// modelPids are the pids the driver registers: sparse and out of order, so
// the pid-indexed entry table has holes and Pids has something to order.
var modelPids = [...]int{7, 1, 12, 0, 30, 4}

// unregistered is the model's state of a pid it does not hold.
const unregistered = Finished + 1

type modelProc struct {
	pid, priority int
	state         State
}

// rqModel is the naive reference run queue.
type rqModel struct {
	procs   []modelProc // registered processes, in registration order
	ready   []int       // Ready pids, in dispatch order
	running int
	strict  bool
	// pinned fixes the slice-mapping range to [pinLo, pinHi]; otherwise it
	// is [lo, hi], the priorities added since the registry was last empty.
	pinned       bool
	pinLo, pinHi int
	lo, hi       int
}

func (m *rqModel) find(pid int) int {
	for i, p := range m.procs {
		if p.pid == pid {
			return i
		}
	}
	return -1
}

func (m *rqModel) add(pid, priority int) {
	if len(m.procs) == 0 {
		m.lo, m.hi = priority, priority
	}
	m.lo, m.hi = min(m.lo, priority), max(m.hi, priority)
	m.procs = append(m.procs, modelProc{pid: pid, priority: priority, state: Ready})
	m.ready = append(m.ready, pid)
}

func (m *rqModel) remove(pid int) {
	i := m.find(pid)
	m.procs = append(m.procs[:i], m.procs[i+1:]...)
	m.dropReady(pid)
}

func (m *rqModel) dropReady(pid int) {
	for i, q := range m.ready {
		if q == pid {
			m.ready = append(m.ready[:i], m.ready[i+1:]...)
			return
		}
	}
}

// next is the Ready pid to dispatch: the queue head, or under strict
// priority the first of the highest priority; -1 when none is Ready.
func (m *rqModel) next() int {
	best := -1
	for _, pid := range m.ready {
		if best == -1 || m.strict && m.procs[m.find(pid)].priority > m.procs[m.find(best)].priority {
			best = pid
		}
	}
	return best
}

func (m *rqModel) setState(pid int, s State) { m.procs[m.find(pid)].state = s }

func (m *rqModel) pick() int {
	pid := m.next()
	if pid != -1 {
		m.dropReady(pid)
		m.setState(pid, Running)
		m.running = pid
	}
	return pid
}

// leave takes the running process off the CPU into state s.
func (m *rqModel) leave(s State) {
	m.setState(m.running, s)
	if s == Ready {
		m.ready = append(m.ready, m.running)
	}
	m.running = -1
}

func (m *rqModel) alive() int {
	n := 0
	for _, p := range m.procs {
		if p.state != Finished {
			n++
		}
	}
	return n
}

// slice maps a priority linearly onto [MinSlice, MaxSlice] across the
// current range, clamped at its ends.
func (m *rqModel) slice(priority int) sim.Time {
	lo, hi := m.lo, m.hi
	if m.pinned {
		lo, hi = m.pinLo, m.pinHi
	}
	if lo == hi {
		return MaxSlice
	}
	frac := math.Min(1, math.Max(0, float64(priority-lo)/float64(hi-lo)))
	return MinSlice + sim.Time(frac*float64(MaxSlice-MinSlice))
}

func (m *rqModel) pids() []int {
	out := make([]int, 0, len(m.procs))
	for _, p := range m.procs {
		out = append(out, p.pid)
	}
	sort.Ints(out)
	return out
}

// runRunqueue replays ops against a fresh RR and the model. The first byte
// sets the mode: bit 0 strict priority, bit 1 a pinned priority range taken
// from the upper bits. Each further pair (op, arg) is one operation: op's
// low three bits pick it and its upper bits a priority (-8…23); arg picks a
// pid from modelPids, except that with arg's top bit clear Expire, Block
// and Finish target the running process when there is one. An operation
// the model's state forbids must panic and leave the run queue unchanged.
// Every observable is compared after every operation.
func runRunqueue(t testing.TB, ops []byte) {
	if len(ops) == 0 {
		return
	}
	rr, m := New(), &rqModel{running: -1}
	mode := ops[0]
	m.strict = mode&1 != 0
	rr.SetStrictPriority(m.strict)
	if mode&2 != 0 {
		m.pinned = true
		m.pinLo = int(mode>>2&7) - 2
		m.pinHi = m.pinLo + int(mode>>5)
		rr.SetPriorityRange(m.pinLo, m.pinHi)
	}
	for ops = ops[1:]; len(ops) >= 2; ops = ops[2:] {
		op, arg := ops[0], ops[1]
		pid := modelPids[int(arg)%len(modelPids)]
		priority := int(op>>3) - 8
		kind := op & 7
		if kind >= 3 && kind <= 5 && arg&0x80 == 0 && m.running != -1 {
			pid = m.running
		}
		i := m.find(pid)
		state := unregistered
		if i >= 0 {
			state = m.procs[i].state
		}
		var name string
		var apply func()
		valid := true
		switch kind {
		case 0:
			name, valid = "Add", state == unregistered
			apply = func() { rr.Add(pid, priority) }
			if valid {
				m.add(pid, priority)
			}
		case 1:
			name, valid = "Remove", state == Ready
			apply = func() { rr.Remove(pid) }
			if valid {
				m.remove(pid)
			}
		case 2, 7:
			name, valid = "PickNext", m.running == -1
			apply = func() {
				if got, want := rr.PickNext(), m.pick(); got != want {
					t.Fatalf("PickNext = %d, model %d", got, want)
				}
			}
		case 3, 4, 5:
			name, valid = [...]string{"Expire", "Block", "Finish"}[kind-3], state == Running
			apply = [...]func(){func() { rr.Expire(pid) }, func() { rr.Block(pid) }, func() { rr.Finish(pid) }}[kind-3]
			if valid {
				m.leave([...]State{Ready, Blocked, Finished}[kind-3])
			}
		case 6:
			name, valid = "Unblock", state == Blocked
			apply = func() { rr.Unblock(pid) }
			if valid {
				m.setState(pid, Ready)
				m.ready = append(m.ready, pid)
			}
		}
		if valid {
			apply()
		} else {
			mustPanic(t, fmt.Sprintf("%s(%d) in state %d", name, pid, state), apply)
		}
		compareRunqueue(t, rr, m)
	}
}

func mustPanic(t testing.TB, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// compareRunqueue checks every observable of rr against the model.
func compareRunqueue(t testing.TB, rr *RR, m *rqModel) {
	t.Helper()
	if got, want := rr.Running(), m.running; got != want {
		t.Fatalf("Running = %d, model %d", got, want)
	}
	if got, want := rr.NextToRun(), m.next(); got != want {
		t.Fatalf("NextToRun = %d, model %d", got, want)
	}
	if got, want := rr.Runnable(), len(m.ready); got != want {
		t.Fatalf("Runnable = %d, model %d", got, want)
	}
	if got, want := rr.Alive(), m.alive(); got != want {
		t.Fatalf("Alive = %d, model %d", got, want)
	}
	if got, want := fmt.Sprint(rr.Pids()), fmt.Sprint(m.pids()); got != want {
		t.Fatalf("Pids = %s, model %s", got, want)
	}
	for _, p := range m.procs {
		if got := rr.StateOf(p.pid); got != p.state {
			t.Fatalf("StateOf(%d) = %v, model %v", p.pid, got, p.state)
		}
		if got, want := rr.SliceFor(p.pid), m.slice(p.priority); got != want {
			t.Fatalf("SliceFor(%d) = %v, model %v", p.pid, got, want)
		}
	}
}

// TestRunqueueMatchesModel compares RR op by op with the reference model
// over seeded random operation streams, in each of the four modes: NICE or
// strict priority, registered or pinned priority range.
func TestRunqueueMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		ops := make([]byte, 1+2*(1+rng.Intn(300)))
		rng.Read(ops)
		ops[0] = ops[0]&^3 | byte(i%4)
		runRunqueue(t, ops)
	}
}

// FuzzRunqueue is TestRunqueueMatchesModel over fuzzed operation streams.
func FuzzRunqueue(f *testing.F) {
	f.Add([]byte{0, 0x40, 0, 0x60, 1, 2, 0, 3, 0, 2, 0, 1, 1})
	f.Add([]byte{1, 0x40, 2, 0x90, 3, 0x20, 4, 2, 0, 4, 0, 2, 0, 6, 0x82, 1, 4})
	f.Add([]byte{0xe6, 0x08, 0, 0xf8, 1, 2, 0, 5, 0, 2, 0, 3, 0x81, 0, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4097 {
			ops = ops[:4097]
		}
		runRunqueue(t, ops)
	})
}
