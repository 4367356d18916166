// Package prng is the fixture stand-in for the real deterministic PRNG:
// seedflow audits the seeds its callers pass to New.
package prng

// Source is the fixture PRNG state.
type Source struct {
	s uint64
}

// New returns a fixture source seeded with seed.
func New(seed uint64) *Source {
	return &Source{s: seed}
}

// Mix folds the parts into one seed (fixture copy of the documented
// splitmix64 mixer).
//
//itslint:seedmixer
func Mix(parts ...uint64) uint64 {
	var out uint64
	for _, p := range parts {
		out ^= p + 0x9E3779B97F4A7C15
	}
	return out
}

// Uint64 draws the next value.
func (s *Source) Uint64() uint64 {
	s.s += 0x9E3779B97F4A7C15
	return s.s
}
