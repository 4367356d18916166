package machine_test

import (
	"runtime"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// TestHotLoopZeroAllocs pins the tracing-off hot loop at 0 allocs/record:
// once the platform is built, running tens of thousands of records must
// allocate only O(1) setup residue (event-pool warm-up, the first Pending
// growths, Inflight map rehashes, calendar-queue bucket growth) — nothing
// proportional to the record count. The budget below is a hundredth of an
// allocation per record; a single stray per-record allocation trips it by
// two orders of magnitude.
func TestHotLoopZeroAllocs(t *testing.T) {
	for _, kind := range []policy.Kind{policy.Sync, policy.ITS} {
		t.Run(kind.String(), func(t *testing.T) {
			batch := workload.Batches()[1]
			gens := batch.Generators(0.02)
			specs := make([]machine.ProcessSpec, len(gens))
			records := 0
			for j, g := range gens {
				specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
				records += g.Len()
			}
			m := newMachine(t, testConfig(), policy.New(kind), batch.Name, specs)

			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)

			allocs := after.Mallocs - before.Mallocs
			perRecord := float64(allocs) / float64(records)
			t.Logf("%d allocs over %d records = %.5f allocs/record", allocs, records, perRecord)
			if perRecord >= 0.01 {
				t.Errorf("hot loop allocates: %.5f allocs/record (%d allocs / %d records); want < 0.01",
					perRecord, allocs, records)
			}
		})
	}
}
