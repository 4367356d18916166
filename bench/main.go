// Command bench is the simulator's benchmark: it runs one workload (or all
// of them) for a fixed host-time budget, checks every simulated run, and
// prints the end-to-end metrics — or, with -trace 1, the per-layer
// metrics — as the last line of standard output:
//
//	bash bench/run.sh -workload paper-grid -seed 0 -seconds 20 -trace 0
//	bash bench/run.sh -workload all -seed 7
//
// run.sh builds this module and runs it from the repository root. The
// workloads, metrics and how to compare two commits are in README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// outDir holds scratch input files, spans and CPU profiles, relative to
// the repository root the benchmark runs from.
const outDir = "bench/out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all: "+workloadNames())
	seed := fs.Uint64("seed", 0, "input seed; 0 = the paper's pinned inputs")
	seconds := fs.Int("seconds", 20, "host seconds each measured pass repeats the workload for")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fs.Usage()
		return 2
	}
	if *name == "all" {
		return runAll([]string{"-seed", strconv.FormatUint(*seed, 10),
			"-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*traced)}, stdout, stderr)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	golden, err := loadGolden()
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	res, err := measure(w, config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *traced == 1,
		size:    1,
		outDir:  outDir,
	}, golden, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return emit(res, stdout, stderr)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// emit prints the result line; a failed check makes the exit status 1.
func emit(res *result, stdout, stderr io.Writer) int {
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload with flags in a fresh child process, one at a
// time, so that each has the process's peak RSS and GC state to itself.
// Each child's line is printed, then one line combining them with metric
// names prefixed by the workload.
func runAll(flags []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	all := &result{Correct: true, Metrics: make(map[string]metric)}
	for _, w := range workloads {
		var out bytes.Buffer
		cmd := exec.Command(self, append([]string{"-workload", w.name}, flags...)...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		runErr := cmd.Run()
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v (%v)\n", w.name, err, runErr)
			return 1
		}
		fmt.Fprintf(stdout, "%s: %s", w.name, lastLine(out.Bytes()))
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"."+k] = m
		}
	}
	return emit(all, stdout, stderr)
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return append(b[bytes.LastIndexByte(b, '\n')+1:], '\n')
}

func lastResult(b []byte) (*result, error) {
	var res result
	if err := json.Unmarshal(lastLine(b), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if res.Metrics == nil {
		return nil, fmt.Errorf("no result line")
	}
	return &res, nil
}
