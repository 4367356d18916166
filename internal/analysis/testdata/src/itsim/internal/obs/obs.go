// Fixture for schemafreeze's sink-exhaustiveness rule: every switch over the
// event discriminator inside a sink's Write method must either handle every
// kind or carry an explicit default.
package obs

// Type discriminates event kinds (fixture copy of the real obs.Type).
type Type uint8

// Fixture event kinds; NumTypes is the array-sizing sentinel the analyzer
// excludes from the exhaustiveness set.
const (
	EvA Type = iota
	EvB
	EvC
	EvD
	NumTypes
)

// Event is the fixture event record.
type Event struct {
	Type Type
}

// Exhaustive handles every kind explicitly: clean.
type Exhaustive struct{ a, b, c, d int }

// Write implements the sink contract.
func (s *Exhaustive) Write(ev Event) {
	switch ev.Type {
	case EvA:
		s.a++
	case EvB:
		s.b++
	case EvC:
		s.c++
	case EvD:
		s.d++
	}
}

// Defaulted drops the rest through an explicit default — a deliberate act,
// so it is clean.
type Defaulted struct{ a int }

// Write implements the sink contract.
func (s *Defaulted) Write(ev Event) {
	switch ev.Type {
	case EvA:
		s.a++
	default:
		// everything else deliberately ignored
	}
}

// Leaky silently ignores EvC and EvD: flagged with the full missing list.
type Leaky struct{ a, b int }

// Write implements the sink contract.
func (s *Leaky) Write(ev Event) {
	switch ev.Type { // want `sink switch does not handle event kinds EvC, EvD`
	case EvA:
		s.a++
	case EvB:
		s.b++
	}
}

// classify is not a Write method: the exhaustiveness rule does not apply.
func classify(t Type) bool {
	switch t {
	case EvA:
		return true
	}
	return false
}

// Allowed suppresses the gap with a justification: counted, not reported.
type Allowed struct{ a int }

// Write implements the sink contract.
func (s *Allowed) Write(ev Event) {
	switch ev.Type { //itslint:allow fixture: only EvA bears accounting here
	case EvA:
		s.a++
	}
}
