package sim

import (
	"math/rand"
	"testing"
)

// The reference model of the event core: a slice kept sorted by (at, id),
// where id is the scheduling order. It shares no code with Engine, so any
// disagreement between the two is an Engine bug (or a model bug, which the
// hand-written tests in sim_test.go pin down).

// modelEvent is one pending event of the reference model. chain >= 0 makes
// the event schedule one follow-up chain nanoseconds after it fires.
type modelEvent struct {
	at    Time
	id    int
	chain Time
}

// model is the naive reference event core.
type model struct {
	now     Time
	next    int
	pending []modelEvent
	fired   []int
}

func (m *model) schedule(at, chain Time) {
	ev := modelEvent{at: at, id: m.next, chain: chain}
	m.next++
	i := len(m.pending)
	for i > 0 && m.pending[i-1].at > at {
		i--
	}
	m.pending = append(m.pending, modelEvent{})
	copy(m.pending[i+1:], m.pending[i:])
	m.pending[i] = ev
}

func (m *model) fireOne() {
	ev := m.pending[0]
	m.pending = m.pending[1:]
	if ev.at > m.now {
		m.now = ev.at
	}
	m.fired = append(m.fired, ev.id)
	if ev.chain >= 0 {
		m.schedule(m.now+ev.chain, -1)
	}
}

func (m *model) cancel(id int) bool {
	for i, ev := range m.pending {
		if ev.id == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// fireFunc adapts a closure to Handler, so ScheduleHandler is driven too.
type fireFunc func(now Time)

func (f fireFunc) Fire(now Time) { f(now) }

// modelHarness drives an Engine and the model with one operation stream.
type modelHarness struct {
	t   testing.TB
	eng Engine
	m   model
	// handles[id] is the Engine handle of the id-th scheduled event.
	handles []*Event
	// cancelled lists ids cancelled so far; their structs are never
	// recycled, so the handles stay valid.
	cancelled []int
	// recent lists ids fired since the last schedule: their structs sit on
	// the free list and no schedule has reused them yet.
	recent []int
	// fired is the Engine's fire log.
	fired []int
}

// schedule queues an event on the Engine only: the model schedules its own
// copy, and its own follow-ups when a chained event fires.
func (h *modelHarness) schedule(at, chain Time, handler bool) {
	id := len(h.handles)
	fire := func(now Time) {
		h.fired = append(h.fired, id)
		h.recent = append(h.recent, id)
		if chain >= 0 {
			h.schedule(now+chain, -1, false)
		}
	}
	// Any schedule may reuse a fired struct.
	h.recent = h.recent[:0]
	var ev *Event
	if handler {
		ev = h.eng.ScheduleHandler(at, fireFunc(fire))
	} else {
		ev = h.eng.Schedule(at, fire)
	}
	h.handles = append(h.handles, ev)
}

// delta maps a byte to a delay: 0–3 ns plus a multiple of 100 ns, so equal
// timestamps are common but the queue also spans a range of times.
func delta(b byte) Time { return Time(b&3) + Time(b>>6)*100 }

// step applies one operation, read from the first two bytes of ops, to both
// cores and compares them; it returns the unread ops.
func (h *modelHarness) step(ops []byte) []byte {
	t := h.t
	op, arg := ops[0], ops[1]
	switch op % 10 {
	case 0, 1, 2:
		chain := Time(-1)
		if op&0x80 != 0 {
			chain = delta(op >> 1)
		}
		at := h.eng.Now() + delta(arg)
		h.schedule(at, chain, op%10 == 2)
		h.m.schedule(at, chain)
	case 3:
		if len(h.m.pending) == 0 {
			break
		}
		id := h.m.pending[int(arg)%len(h.m.pending)].id
		if !h.eng.Cancel(h.handles[id]) {
			t.Fatalf("Cancel of pending event %d returned false", id)
		}
		h.m.cancel(id)
		h.cancelled = append(h.cancelled, id)
	case 4:
		if len(h.cancelled) == 0 {
			break
		}
		id := h.cancelled[int(arg)%len(h.cancelled)]
		if h.eng.Cancel(h.handles[id]) {
			t.Fatalf("second Cancel of event %d returned true", id)
		}
	case 5:
		if len(h.recent) == 0 {
			break
		}
		id := h.recent[int(arg)%len(h.recent)]
		if h.eng.Cancel(h.handles[id]) {
			t.Fatalf("Cancel of fired event %d returned true", id)
		}
		if h.m.cancel(id) {
			t.Fatalf("the model still holds fired event %d", id)
		}
	case 6, 7:
		got := h.eng.StepOne()
		if want := len(h.m.pending) > 0; got != want {
			t.Fatalf("StepOne = %v, want %v", got, want)
		}
		if got {
			h.m.fireOne()
		}
	case 8:
		to := h.eng.Now() + delta(arg)
		h.eng.AdvanceTo(to)
		for len(h.m.pending) > 0 && h.m.pending[0].at <= to {
			h.m.fireOne()
		}
		if h.m.now < to {
			h.m.now = to
		}
	case 9:
		h.eng.RunUntilIdle()
		for len(h.m.pending) > 0 {
			h.m.fireOne()
		}
	}
	h.compare()
	return ops[2:]
}

// compare checks every observable of the Engine against the model.
func (h *modelHarness) compare() {
	t := h.t
	if len(h.fired) != len(h.m.fired) {
		t.Fatalf("fired %v, model fired %v", h.fired, h.m.fired)
	}
	for i := range h.fired {
		if h.fired[i] != h.m.fired[i] {
			t.Fatalf("fire order %v, model %v", h.fired, h.m.fired)
		}
	}
	if h.eng.Now() != h.m.now {
		t.Fatalf("Now = %v, model %v", h.eng.Now(), h.m.now)
	}
	if h.eng.Pending() != len(h.m.pending) {
		t.Fatalf("Pending = %d, model %d", h.eng.Pending(), len(h.m.pending))
	}
	at, ok := h.eng.NextEventTime()
	if wantOK := len(h.m.pending) > 0; ok != wantOK || (ok && at != h.m.pending[0].at) {
		t.Fatalf("NextEventTime = %v,%v, model %v", at, ok, h.m.pending)
	}
	for _, id := range h.cancelled {
		if !h.handles[id].Cancelled() {
			t.Fatalf("cancelled event %d reports Cancelled() = false", id)
		}
	}
	for _, ev := range h.m.pending {
		if h.handles[ev.id].Cancelled() {
			t.Fatalf("pending event %d reports Cancelled() = true", ev.id)
		}
	}
}

// runModel replays ops (two bytes per operation) against a fresh Engine and
// the model, then drains both.
func runModel(t testing.TB, ops []byte) {
	h := &modelHarness{t: t}
	for len(ops) >= 2 {
		ops = h.step(ops)
	}
	h.step([]byte{9, 0})
}

// TestEngineMatchesModel compares the Engine op by op with the sorted-slice
// model over seeded random operation streams.
func TestEngineMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ops := make([]byte, 2*(1+rng.Intn(400)))
		rng.Read(ops)
		runModel(t, ops)
	}
}

// FuzzEventCore is TestEngineMatchesModel over fuzzed operation streams.
func FuzzEventCore(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 6, 0, 5, 0, 1, 1, 3, 0, 4, 0, 8, 3})
	f.Add([]byte{0x80, 1, 2, 0x40, 1, 0x81, 8, 0xff, 3, 1, 9, 0, 5, 0})
	f.Add([]byte{0, 0xc0, 0, 0x40, 0, 0x80, 0, 0, 0, 0, 3, 2, 3, 0, 6, 0, 6, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runModel(t, ops)
	})
}
