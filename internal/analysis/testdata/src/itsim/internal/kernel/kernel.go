// Fixture for entropyflow's source ban: this package path is in the
// deterministic set, so every nondeterminism source below must be flagged
// unless a justified //itslint:allow covers it.
package kernel

import (
	"math/rand"
	"os"
	"time"
)

// Stats is a fixture counter table.
type Stats struct{ counts map[string]uint64 }

func wallClock() time.Duration {
	start := time.Now()      // want `call to time\.Now in deterministic package itsim/internal/kernel`
	return time.Since(start) // want `call to time\.Since in deterministic package itsim/internal/kernel`
}

func globalRand() int {
	return rand.Intn(10) // want `call to math/rand\.Intn in deterministic package itsim/internal/kernel`
}

// seededRand draws from an explicit seeded source: deterministic, clean.
func seededRand() int {
	r := rand.New(rand.NewSource(42))
	return r.Intn(10)
}

func envDependent() string {
	return os.Getenv("ITS_MODE") // want `call to os\.Getenv in deterministic package itsim/internal/kernel`
}

func mapOrder(s Stats) uint64 {
	var total uint64
	for _, n := range s.counts { // want `range over map map\[string\]uint64 in deterministic package`
		total += n
	}
	return total
}

// allowedFold demonstrates a justified suppression: counted, not reported.
func allowedFold(s Stats) uint64 {
	var total uint64
	for _, n := range s.counts { //itslint:allow order-insensitive sum over counters
		total += n
	}
	return total
}

// wrongLine demonstrates that a directive two lines away does not suppress:
// a directive covers its own line and the one below, nothing further.
func wrongLine(s Stats) uint64 {
	var total uint64
	//itslint:allow this directive is stranded two lines above the range

	for _, n := range s.counts { // want `range over map map\[string\]uint64 in deterministic package`
		total += n
	}
	return total
}
