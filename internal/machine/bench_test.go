package machine_test

import (
	"io"
	"testing"

	"itsim/internal/machine"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// BenchmarkMachineRun measures end-to-end simulation throughput: simulated
// trace records per second of wall time.
func BenchmarkMachineRun(b *testing.B) {
	for _, kind := range []policy.Kind{policy.Sync, policy.ITS} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var records int
			for i := 0; i < b.N; i++ {
				batch := workload.Batches()[1]
				gens := batch.Generators(0.02)
				specs := make([]machine.ProcessSpec, len(gens))
				records = 0
				for j, g := range gens {
					specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
					records += g.Len()
				}
				m := newMachine(b, testConfig(), policy.New(kind), batch.Name, specs)
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(records), "records/run")
		})
	}
}

// benchTracedRun is one full ITS run on the 1_Data_Intensive batch with the
// given tracer attached (nil = tracing off).
func benchTracedRun(b *testing.B, trc *obs.Tracer) {
	batch := workload.Batches()[1]
	gens := batch.Generators(0.02)
	specs := make([]machine.ProcessSpec, len(gens))
	for j, g := range gens {
		specs[j] = machine.ProcessSpec{Name: g.Name(), Gen: g, Priority: batch.Priorities[j], BaseVA: workload.BaseVA}
	}
	m := newMachine(b, testConfig(), policy.New(policy.ITS), batch.Name, specs)
	m.Instrument(trc, 0)
	if _, err := m.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceOff is the untraced hot path: a nil tracer must cost only
// the per-emission-site m.want branch. Compare against BenchmarkTraceChrome
// to measure tracing overhead; the nil-sink path must stay within 2% of the
// seed's BenchmarkMachineRun/ITS.
func BenchmarkTraceOff(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTracedRun(b, nil)
	}
}

// BenchmarkTraceChrome is the same run with every event serialized to a
// discarded Chrome trace — the full-observability worst case.
func BenchmarkTraceChrome(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchTracedRun(b, obs.NewTracer(obs.NewChrome(io.Discard), obs.Filter{}))
	}
}
