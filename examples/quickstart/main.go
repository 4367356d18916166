// Quickstart: run one process batch under plain synchronous I/O and under
// the paper's Idle-Time-Stealing design, and print the headline comparison —
// total CPU idle time, page faults, and average finish times.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"itsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run prints the comparison to w; README's quick-start block is its output.
func run(w io.Writer) error {
	batch, err := itsim.BatchByName("2_Data_Intensive")
	if err != nil {
		return err
	}
	opts := itsim.Options{Scale: 0.1} // 10 % of the full experiment size

	syncRun, err := itsim.RunBatch(batch, itsim.Sync, opts)
	if err != nil {
		return err
	}
	itsRun, err := itsim.RunBatch(batch, itsim.ITS, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "batch %s (%d of 6 processes data-intensive)\n\n", batch.Name, batch.DataIntensive)
	fmt.Fprintf(w, "%-22s %14s %14s\n", "", "Sync", "ITS")
	fmt.Fprintf(w, "%-22s %14v %14v\n", "total CPU idle time", syncRun.TotalIdle(), itsRun.TotalIdle())
	fmt.Fprintf(w, "%-22s %14d %14d\n", "major page faults", syncRun.TotalMajorFaults(), itsRun.TotalMajorFaults())
	fmt.Fprintf(w, "%-22s %14d %14d\n", "LLC misses", syncRun.TotalLLCMisses(), itsRun.TotalLLCMisses())
	fmt.Fprintf(w, "%-22s %14v %14v\n", "makespan", syncRun.Makespan, itsRun.Makespan)
	fmt.Fprintf(w, "%-22s %14v %14v\n", "avg finish (top 50%)", syncRun.TopHalfAvgFinish(), itsRun.TopHalfAvgFinish())
	fmt.Fprintf(w, "%-22s %14v %14v\n", "avg finish (bottom)", syncRun.BottomHalfAvgFinish(), itsRun.BottomHalfAvgFinish())

	saved := 1 - float64(itsRun.TotalIdle())/float64(syncRun.TotalIdle())
	fmt.Fprintf(w, "\nITS reduced CPU idle time by %.0f%% versus synchronous I/O\n", 100*saved)
	fmt.Fprintf(w, "(stolen busy-wait time: %v, prefetch accuracy %.0f%%)\n",
		itsRun.TotalStolen(), 100*itsRun.PrefetchAccuracy())
	return nil
}
