package sim

import (
	"fmt"
	"testing"
)

// BenchmarkScheduleFire holds a fixed number of events pending: each
// operation fires the earliest and schedules a replacement 1–1000 ns out.
// A simulated core holds a few events (2–16); 64 is the bench probe's depth.
func BenchmarkScheduleFire(b *testing.B) {
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Time(1 + i*7919%1000)
	}
	fn := func(Time) {}
	for _, pending := range []int{2, 16, 64} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			var e Engine
			for i := 0; i < pending; i++ {
				e.Schedule(delays[i], fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.StepOne()
				e.Schedule(e.Now()+delays[i&1023], fn)
			}
		})
	}
}
