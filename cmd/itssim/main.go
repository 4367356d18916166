// Command itssim runs one process batch under one I/O-mode policy on the
// simulated platform and prints the resulting metrics.
//
// Usage:
//
//	itssim -batch 2_Data_Intensive -policy ITS -scale 0.25 [-v]
//	itssim -policy ITS -format json
//	itssim -policy ITS -cores 4
//	itssim -policy ITS -trace-out trace.json -trace-format chrome
//	itssim fleet -machines 4 -routing least-loaded -tenants 'bench=caffe,req=8'
//	itssim observe attribute trace.jsonl
//	itssim observe diff a.jsonl b.jsonl
//	itssim observe timeline -bucket 1ms trace.jsonl
//
// Batches: No_Data_Intensive, 1_Data_Intensive, 2_Data_Intensive,
// 3_Data_Intensive. Policies: Async, Sync, Sync_Runahead, Sync_Prefetch,
// ITS.
//
// With -trace-out the full simulation event stream is written as a Chrome
// trace (load in Perfetto / chrome://tracing) or JSONL; -trace-filter
// restricts it to selected event types and pids, and -gauge-interval adds
// periodic virtual-time gauge samples. See docs/OBSERVABILITY.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"itsim/internal/core"
	"itsim/internal/exec"
	"itsim/internal/machine"
	"itsim/internal/policy"
	"itsim/internal/workload"
)

// coreMachineConfig returns the default platform with scale-appropriate
// slices and the DRAM ratio overridden.
func coreMachineConfig(scale, dramRatio float64) machine.Config {
	cfg := machine.DefaultConfig()
	cfg.MinSlice, cfg.MaxSlice = exec.SliceRange(scale)
	cfg.DRAMRatio = dramRatio
	return cfg
}

// params carries the parsed command line.
type params struct {
	batch, policy string
	scale         float64
	dramRatio     float64
	verbose       bool
	format        string
	core.RunFlags
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "observe" {
		os.Exit(observeMain(os.Args[2:], os.Stdout))
	}
	if len(os.Args) > 1 && os.Args[1] == "fleet" {
		os.Exit(fleetMain(os.Args[2:], os.Stdout))
	}
	var p params
	flag.StringVar(&p.batch, "batch", "2_Data_Intensive", "process batch name")
	flag.StringVar(&p.policy, "policy", "ITS", "I/O-mode policy")
	flag.Float64Var(&p.scale, "scale", 0.25, "workload scale factor (1.0 = full size)")
	flag.Float64Var(&p.dramRatio, "dram", 0, "override DRAM/footprint ratio (0 = default)")
	flag.BoolVar(&p.verbose, "v", false, "per-process detail")
	flag.StringVar(&p.format, "format", "text", "run summary format: text|json")
	p.RunFlags.Bind(flag.CommandLine)
	flag.Parse()

	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "itssim:", err)
		if errors.Is(err, workload.ErrScale) {
			os.Exit(2) // a bad -scale is a usage error, like a bad flag
		}
		os.Exit(1)
	}
}

func run(p params) error {
	if p.format != "text" && p.format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", p.format)
	}
	if err := workload.CheckScale(p.scale); err != nil {
		return err
	}
	b, err := workload.BatchByName(p.batch)
	if err != nil {
		return err
	}
	kind, err := policy.KindByName(p.policy)
	if err != nil {
		return err
	}
	opts, err := p.RunFlags.Options()
	if err != nil {
		return err
	}
	opts.Scale = p.scale
	if p.dramRatio > 0 {
		cfg := coreMachineConfig(p.scale, p.dramRatio)
		opts.Machine = &cfg
	}
	run, err := core.RunBatch(b, kind, opts)
	if cerr := opts.Tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("finalizing trace: %w", cerr)
	}
	if err != nil {
		return err
	}

	if p.format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(run.Summary())
	}

	fmt.Printf("batch=%s policy=%s scale=%g\n", b.Name, kind, p.scale)
	fmt.Printf("  makespan          %v\n", run.Makespan)
	fmt.Printf("  total CPU idle    %v (sched idle %v)\n", run.TotalIdle(), run.SchedulerIdle)
	fmt.Printf("  major faults      %d (minor %d)\n", run.TotalMajorFaults(), run.TotalMinorFaults())
	fmt.Printf("  LLC misses        %d\n", run.TotalLLCMisses())
	fmt.Printf("  context switches  %d (time %v)\n", run.TotalContextSwitches(), run.ContextSwitchTime)
	fmt.Printf("  stolen time       %v (prefetch accuracy %.1f%%)\n", run.TotalStolen(), 100*run.PrefetchAccuracy())
	if inj := run.Injection; inj != nil {
		fmt.Printf("  injected faults   tail=%d stall=%d dma=%d (retries %d)\n",
			inj.TailSpikes, inj.ChannelStalls, inj.DMAFailures, inj.DMARetries)
	}
	if d, th := run.TotalDemotions(), run.TotalPrefetchThrottled(); d > 0 || th > 0 {
		fmt.Printf("  degradation       demoted waits %d, throttled prefetch walks %d\n", d, th)
	}
	fmt.Printf("  avg finish        %v (top50 %v, bottom50 %v)\n",
		run.AvgFinish(), run.TopHalfAvgFinish(), run.BottomHalfAvgFinish())
	if run.SyncWaitHist.Count() > 0 {
		fmt.Printf("  sync waits        %s\n", run.SyncWaitHist)
	}
	if run.BlockedHist.Count() > 0 {
		fmt.Printf("  blocked waits     %s\n", run.BlockedHist)
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  core\tclock\tcpu\tidle\tswitch\tstolen\tdispatches\tsteals\tmigrated-away")
	for _, c := range run.Cores {
		fmt.Fprintf(w, "  %d\t%v\t%v\t%v\t%v\t%v\t%d\t%d\t%d\n",
			c.ID, c.LocalClock, c.CPUTime, c.SchedulerIdle, c.ContextSwitchTime,
			c.Stolen(), c.Dispatches, c.Steals, c.MigratedAway)
	}
	w.Flush()

	if p.verbose {
		w = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  pid\tname\tprio\tfinish\tmajflt\tllc-miss\tmem-stall\tstorage-wait\tstolen\tpf-issued\tpf-useful")
		for _, p := range run.Procs {
			fmt.Fprintf(w, "  %d\t%s\t%d\t%v\t%d\t%d\t%v\t%v\t%v\t%d\t%d\n",
				p.PID, p.Name, p.Priority, p.FinishTime, p.MajorFaults, p.LLCMisses,
				p.MemStall, p.StorageWait, p.StolenPrefetch+p.StolenPreexec,
				p.PrefetchIssued, p.PrefetchUseful)
		}
		w.Flush()
	}
	return nil
}
