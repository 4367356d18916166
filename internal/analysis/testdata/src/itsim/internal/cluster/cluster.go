// Fixture for schemafreeze's cluster-exhaustiveness rule: the fleet
// coordinator consumes the obs event stream like replay does, so any
// switch over the obs event discriminator — in any function — must handle
// every kind or default explicitly.
package cluster

import "itsim/internal/obs"

// routeClean handles every kind explicitly: clean.
func routeClean(ev obs.Event) int {
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

// routeDefaulted drops the rest through an explicit default — a deliberate
// act, so it is clean.
func routeDefaulted(ev obs.Event) int {
	switch ev.Type {
	case obs.EvA:
		return 1
	default:
		return 0
	}
}

// routeLeaky silently ignores EvC: flagged even though it is not a Write
// method.
func routeLeaky(ev obs.Event) int {
	switch ev.Type { // want `cluster switch does not handle event kinds EvC, EvD`
	case obs.EvA:
		return 1
	case obs.EvB:
		return 2
	}
	return 0
}

// coordinator methods are covered too.
type coordinator struct{ n int }

func (c *coordinator) observe(ev obs.Event) {
	switch ev.Type { // want `cluster switch does not handle event kinds EvB, EvC, EvD`
	case obs.EvA:
		c.n++
	}
}

// notEventSwitch switches over a machine id, not an event kind: ignored.
func notEventSwitch(machine int) int {
	switch machine {
	case 0:
		return 1
	}
	return 0
}

// allowedGap suppresses the gap with a justification: counted, not
// reported.
func allowedGap(ev obs.Event) int {
	switch ev.Type { //itslint:allow fixture: only EvA reaches the router
	case obs.EvA:
		return 1
	}
	return 0
}
