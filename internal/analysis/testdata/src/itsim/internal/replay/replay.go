// Fixture for schemafreeze's replay-exhaustiveness rule: in the replay
// package any switch over the obs event discriminator — in any function,
// not just Write methods — must handle every kind or default explicitly.
package replay

import "itsim/internal/obs"

// foldClean handles every kind explicitly: clean.
func foldClean(ev obs.Event) int {
	switch ev.Type {
	case obs.EvA:
		return 1
	case obs.EvB:
		return 2
	case obs.EvC:
		return 3
	case obs.EvD:
		return 4
	}
	return 0
}

// foldDefaulted drops the rest through an explicit default — a deliberate
// act, so it is clean.
func foldDefaulted(ev obs.Event) int {
	switch ev.Type {
	case obs.EvA:
		return 1
	default:
		return 0
	}
}

// foldLeaky silently ignores EvC: flagged even though it is not a Write
// method.
func foldLeaky(ev obs.Event) int {
	switch ev.Type { // want `replay switch does not handle event kinds EvC, EvD`
	case obs.EvA:
		return 1
	case obs.EvB:
		return 2
	}
	return 0
}

// method receivers are covered too.
type folder struct{ n int }

func (f *folder) fold(ev obs.Event) {
	switch ev.Type { // want `replay switch does not handle event kinds EvB, EvC, EvD`
	case obs.EvA:
		f.n++
	}
}

// notEventSwitch switches over something else entirely: ignored.
func notEventSwitch(n int) int {
	switch n {
	case 1:
		return 1
	}
	return 0
}

// allowedGap suppresses the gap with a justification: counted, not
// reported.
func allowedGap(ev obs.Event) int {
	switch ev.Type { //itslint:allow fixture: only EvA matters here
	case obs.EvA:
		return 1
	}
	return 0
}
