package main

import (
	"fmt"

	"itsim/internal/core"
	"itsim/internal/exec"
	"itsim/internal/machine"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// ablate runs ITS variants on one batch to attribute the fault reduction.
func ablate(batchName string, scale, dram float64, degree int) {
	b, err := workload.BatchByName(batchName)
	if err != nil {
		panic(err)
	}
	cfg := machine.DefaultConfig()
	cfg.DRAMRatio = dram
	cfg.MinSlice, cfg.MaxSlice = exec.SliceRange(scale)
	opts := core.Options{Scale: scale, Machine: &cfg}
	variants := []struct {
		name string
		pol  policy.Policy
	}{
		{"Sync", policy.New(policy.Sync)},
		{"ITS-full", policy.NewITS(policy.ITSConfig{PrefetchDegree: degree})},
		{"ITS-noSelfSac", policy.NewITS(policy.ITSConfig{PrefetchDegree: degree, DisableSelfSacrificing: true})},
		{"ITS-noPrefetch", policy.NewITS(policy.ITSConfig{PrefetchDegree: degree, DisablePrefetch: true})},
		{"ITS-noPreexec", policy.NewITS(policy.ITSConfig{PrefetchDegree: degree, DisablePreExecute: true})},
		{"ITS-prefetchOnly", policy.NewITS(policy.ITSConfig{PrefetchDegree: degree, DisableSelfSacrificing: true, DisablePreExecute: true})},
	}
	fmt.Printf("ablation on %s (scale=%g dram=%g degree=%d)\n", batchName, scale, dram, degree)
	for _, v := range variants {
		run, err := core.RunBatchWithPolicy(b, v.pol, opts)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-18s idle=%-12v faults=%-7d misses=%-8d makespan=%v\n",
			v.name, run.TotalIdle(), run.TotalMajorFaults(), run.TotalLLCMisses(), run.Makespan)
	}
}
