// Fixture for entropyflow's source ban on the workload package: the
// open-loop arrival generators joined the deterministic set, so wall
// clocks, global rand, env reads and map-order iteration are flagged
// there like everywhere else in the simulator core.
package workload

import (
	"math/rand"
	"os"
	"time"
)

// profiles is a fixture benchmark table.
type profiles struct{ byName map[string]uint64 }

// jitteredArrival stamps arrivals off the host clock: flagged — arrival
// times must be a pure function of the seed.
func jitteredArrival() time.Duration {
	t0 := time.Now()      // want `call to time\.Now in deterministic package itsim/internal/workload`
	return time.Since(t0) // want `call to time\.Since in deterministic package itsim/internal/workload`
}

// globalDraw thins arrivals through the process-global rand: flagged.
func globalDraw() float64 {
	return rand.Float64() // want `call to math/rand\.Float64 in deterministic package itsim/internal/workload`
}

// seededDraw uses an explicit seeded source: deterministic, clean.
func seededDraw() float64 {
	r := rand.New(rand.NewSource(7))
	return r.Float64()
}

// envRate reads the arrival rate from the environment: flagged.
func envRate() string {
	return os.Getenv("ITS_RATE") // want `call to os\.Getenv in deterministic package itsim/internal/workload`
}

// sumAll iterates the profile map in host order: flagged — tenant spec
// order, not map order, is the deterministic enumeration.
func sumAll(p profiles) uint64 {
	var total uint64
	for _, seed := range p.byName { // want `range over map map\[string\]uint64 in deterministic package`
		total += seed
	}
	return total
}

// keyedLookup accesses the map by key only: clean.
func keyedLookup(p profiles, name string) uint64 {
	return p.byName[name]
}

// allowedSum demonstrates a justified suppression: counted, not reported.
func allowedSum(p profiles) uint64 {
	var total uint64
	for _, seed := range p.byName { //itslint:allow order-insensitive sum over seeds
		total += seed
	}
	return total
}
