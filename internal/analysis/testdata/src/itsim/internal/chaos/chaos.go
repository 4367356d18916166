// Package chaos is the deterministic-set consumer fixture for entropyflow:
// every function here is clean for the source ban (no direct map range,
// wall clock or global rand — a test asserts that), yet the leak variants
// launder nondeterminism through the order→wrap helper chain or introduce
// it via unsafe/select, and entropyflow must catch it at the sink.
package chaos

import (
	"unsafe"

	"itsim/internal/lib/wrap"
	"itsim/internal/metrics"
	"itsim/internal/obs"
	"itsim/internal/prng"
	"itsim/internal/sim"
)

// scheduleLeak keys an event on a value two packages away from a map range:
// the regression the fact propagation exists for.
func scheduleLeak(e *sim.Engine, m map[string]int) {
	key := wrap.FirstKey(m)
	e.Schedule(sim.Time(len(key)), func() {}) // want `map iteration order \(via itsim/internal/lib/order\.Keys\) flows into event-queue insertion key in deterministic package itsim/internal/chaos`
}

// scheduleSorted is the clean polarity: the helper chain sanitized the
// order with a sort, so no fact and no diagnostic.
func scheduleSorted(e *sim.Engine, m map[string]int) {
	key := wrap.FirstSorted(m)
	e.Schedule(sim.Time(len(key)), func() {})
}

// seedLeak derives a PRNG seed from map order: stream draws reshuffle
// across runs even though every individual draw is seeded.
func seedLeak(m map[string]int) *prng.Source {
	return prng.New(uint64(len(wrap.FirstKey(m)))) // want `map iteration order \(via itsim/internal/lib/order\.Keys\) flows into PRNG seed`
}

// seedMixed is the clean polarity: a constant-derived seed through the
// documented mixer.
func seedMixed(id int) *prng.Source {
	return prng.New(prng.Mix(0x1234, uint64(id)))
}

// emitLeak stamps an obs event field from laundered map order.
func emitLeak(m map[string]int) obs.Event {
	return obs.Event{Type: obs.Type(len(wrap.FirstKey(m)))} // want `map iteration order \(via itsim/internal/lib/order\.Keys\) flows into obs event field`
}

// record forwards its parameter into a frozen metrics summary field: no
// diagnostic here (v may be deterministic), but the ParamEscapesToSink fact
// makes every caller's argument a sink.
func record(s *metrics.Summary, v float64) {
	s.NewGauge = v
}

// recordLeak passes laundered entropy into record's escaping parameter:
// caught through the intra-package fact, one hop above the field write.
func recordLeak(s *metrics.Summary, m map[string]int) {
	record(s, float64(len(wrap.FirstKey(m)))) // want `map iteration order \(via itsim/internal/lib/order\.Keys\) flows into metrics summary field via itsim/internal/chaos\.record`
}

// addrLeak keys an event on a pointer address: ASLR reshuffles it per run.
func addrLeak(e *sim.Engine, p *int) {
	e.Schedule(sim.Time(uintptr(unsafe.Pointer(p))), func() {}) // want `pointer-address entropy \(unsafe conversion\) flows into event-queue insertion key`
}

// selectLeak keys an event on which channel won the select race.
func selectLeak(e *sim.Engine, a, b chan int) {
	var v int
	select {
	case v = <-a:
	case v = <-b:
	}
	e.Schedule(sim.Time(v), func() {}) // want `select arrival order flows into event-queue insertion key`
}

// allowedLeak carries a justified suppression: counted, not reported.
func allowedLeak(e *sim.Engine, m map[string]int) {
	key := wrap.FirstKey(m)
	//itslint:allow fixture: key only pads the demo, order-insensitive
	e.Schedule(sim.Time(len(key)), func() {})
}
