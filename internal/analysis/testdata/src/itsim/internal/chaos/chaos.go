// Package chaos is the deterministic-set consumer fixture for entropyflow.
// It launders map order through the order→wrap helper chain without a map
// range, wall clock or global rand of its own (a test asserts that). The
// helpers are in the deterministic set because chaos imports them, so the
// source ban reports the leak in lib/order, where the entropy is made.
package chaos

import (
	"unsafe"

	"itsim/internal/lib/wrap"
	"itsim/internal/sim"
)

// scheduleLeak keys an event on a value two packages away from a map range.
func scheduleLeak(e *sim.Engine, m map[string]int) {
	key := wrap.FirstKey(m)
	e.Schedule(sim.Time(len(key)), func() {})
}

// scheduleSorted keys an event on a sorted key: deterministic.
func scheduleSorted(e *sim.Engine, m map[string]int) {
	key := wrap.FirstSorted(m)
	e.Schedule(sim.Time(len(key)), func() {})
}

// addrLeak keys an event on a pointer address: ASLR reshuffles it per run.
func addrLeak(e *sim.Engine, p *int) {
	e.Schedule(sim.Time(uintptr(unsafe.Pointer(p))), func() {}) // want `conversion of unsafe.Pointer to uintptr in deterministic package itsim/internal/chaos`
}

// addrOnly converts a pointer to an integer that reaches nothing
// sim-visible: the ban reports it all the same.
func addrOnly(p *int) bool {
	return uintptr(unsafe.Pointer(p))%8 == 0 // want `conversion of unsafe.Pointer to uintptr`
}

// reinterpret converts between pointer types through unsafe.Pointer: no
// address becomes a value, so it is clean.
func reinterpret(p *uint64) *[8]byte {
	return (*[8]byte)(unsafe.Pointer(p))
}

// allowedAddr carries a justified suppression: counted, not reported.
func allowedAddr(p *int) uintptr {
	//itslint:allow fixture: the address only labels a debug dump
	return uintptr(unsafe.Pointer(p))
}
