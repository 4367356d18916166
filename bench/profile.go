package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the simulator packages (itsim/internal/<layer>) whose share
// of host time is a metric. Samples in any other internal package (bus,
// fault, chaos, ...) count toward the attributed total without a metric of
// their own.
var layers = []string{
	"exec", "cache", "pagetable", "cpu", "mem", "kernel", "storage", "sched",
	"policy", "prefetch", "preexec", "sim", "smp", "cluster", "workload",
	"trace", "prng", "metrics", "obs",
}

// gcFrames are the runtime frames of garbage-collector work; a sample
// with one of them on its stack is GC time whatever called into it.
var gcFrames = []string{
	"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scanobject", "runtime.sweepone", "runtime.(*sweepLocked)",
	"runtime.(*gcWork)", "runtime.(*mheap).reclaim",
}

// sample is one folded profile stack, innermost frame first, with the
// profiler labels it was taken under.
type sample struct {
	frames []string
	labels map[string]string
	dur    time.Duration
}

// foldProfile runs the toolchain's `go tool pprof -traces` on a CPU
// profile and returns its stacks.
func foldProfile(path string) ([]sample, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(stdout.Bytes())
}

// parseTraces reads pprof's -traces text: blocks separated by dashed
// lines, each "key:  value" label lines, then the sample value followed
// by its stack, innermost first.
func parseTraces(text []byte) ([]sample, error) {
	var out []sample
	var cur *sample
	var labels map[string]string
	started := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			started, cur, labels = true, nil, nil
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue // header lines precede the first block
		}
		if cur == nil {
			if key, ok := strings.CutSuffix(fields[0], ":"); ok {
				if labels == nil {
					labels = make(map[string]string)
				}
				labels[key] = strings.Join(fields[1:], " ")
				continue
			}
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: bad sample line %q", line)
			}
			out = append(out, sample{dur: d, labels: labels})
			cur = &out[len(out)-1]
			fields = fields[1:]
		}
		cur.frames = append(cur.frames, fields[0])
	}
	return out, sc.Err()
}

// attribute names the part of the program a sample's time belongs to:
// "runtime.gc" for collector work, else the innermost simulator layer
// on the stack, else "bench" for the benchmark's own code, else
// "runtime.other".
func attribute(frames []string) string {
	for _, f := range frames {
		for _, g := range gcFrames {
			if strings.HasPrefix(f, g) {
				return "runtime.gc"
			}
		}
	}
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "itsim/internal/"); ok {
			return rest[:strings.IndexAny(rest+".", "./")]
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") || strings.HasPrefix(f, "itsim/bench.") {
			return "bench"
		}
	}
	return "runtime.other"
}

// attribution is a folded profile.
type attribution struct {
	// total is the profiled CPU time; shares its percentage per
	// attribute() name.
	total  time.Duration
	shares map[string]float64
	// newTime is the time with smp.New anywhere on the stack.
	newTime time.Duration
	// itsPreexec is the percentage of the time spent in runs of the ITS
	// policy that the preexec layer took.
	itsPreexec float64
}

func attributeSamples(samples []sample) attribution {
	a := attribution{shares: make(map[string]float64)}
	var its, itsPreexec time.Duration
	for _, s := range samples {
		a.total += s.dur
		layer := attribute(s.frames)
		a.shares[layer] += float64(s.dur)
		if s.labels["policy"] == "ITS" {
			its += s.dur
			if layer == "preexec" {
				itsPreexec += s.dur
			}
		}
		for _, f := range s.frames {
			if f == "itsim/internal/smp.New" {
				a.newTime += s.dur
				break
			}
		}
	}
	if a.total == 0 {
		return a
	}
	for k, v := range a.shares {
		a.shares[k] = 100 * v / float64(a.total)
	}
	a.itsPreexec = 100 * ratio(float64(itsPreexec), float64(its))
	return a
}
