// Command calib is a development aid: it sweeps calibration knobs and
// prints the Figure 4a/4b grids compactly for comparison against the
// paper's reported bands.
package main

import (
	"flag"
	"fmt"

	"itsim/internal/core"
	"itsim/internal/exec"
	"itsim/internal/machine"
	"itsim/internal/policy"
)

func main() {
	scale := flag.Float64("scale", 0.25, "workload scale")
	dram := flag.Float64("dram", 0.5, "DRAM ratio")
	degree := flag.Int("degree", 8, "ITS prefetch degree")
	ablateBatch := flag.String("ablate", "", "run ITS ablation on this batch instead of the grid")
	flag.Parse()

	if *ablateBatch != "" {
		ablate(*ablateBatch, *scale, *dram, *degree)
		return
	}

	cfg := machine.DefaultConfig()
	cfg.DRAMRatio = *dram
	cfg.MinSlice, cfg.MaxSlice = exec.SliceRange(*scale)
	opts := core.Options{
		Scale:   *scale,
		Machine: &cfg,
		ITS:     policy.ITSConfig{PrefetchDegree: *degree},
	}
	grid, err := core.RunGrid(opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("scale=%g dram=%g degree=%d\n", *scale, *dram, *degree)
	fmt.Println("fig4a (norm idle)      | fig4b faults/100k      | fig5a top50 | fig5b bot50")
	for _, gr := range grid {
		n := gr.Normalized(core.MetricIdle, policy.ITS)
		t := gr.Normalized(core.MetricTopFinish, policy.ITS)
		b := gr.Normalized(core.MetricBottomFinish, policy.ITS)
		fmt.Printf("%-18s A=%.2f S=%.2f R=%.2f P=%.2f |", gr.Batch.Name[:9],
			n[policy.Async], n[policy.Sync], n[policy.SyncRunahead], n[policy.SyncPrefetch])
		for _, k := range policy.Kinds() {
			fmt.Printf(" %5.2f", float64(gr.Runs[k].TotalMajorFaults())/100000)
		}
		fmt.Printf(" | A=%.2f S=%.2f R=%.2f P=%.2f", t[policy.Async], t[policy.Sync], t[policy.SyncRunahead], t[policy.SyncPrefetch])
		fmt.Printf(" | A=%.2f S=%.2f R=%.2f P=%.2f\n", b[policy.Async], b[policy.Sync], b[policy.SyncRunahead], b[policy.SyncPrefetch])
	}
}
