// The observe subcommand is the post-hoc analytics entry point over JSONL
// traces: attribution folding, run-vs-run diffing, and virtual-time
// timelines, all built on internal/replay.
//
//	itssim observe attribute [-format folded|json] [-check summary.json] trace.jsonl
//	itssim observe diff [-window 50us] a.jsonl b.jsonl
//	itssim observe timeline [-bucket 1ms] trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"itsim/internal/metrics"
	"itsim/internal/replay"
	"itsim/internal/sim"
)

const observeUsage = `usage: itssim observe <command> [flags] <trace.jsonl>...

commands:
  attribute   fold a trace into per-core, per-pid time attribution
              -format folded|json, -check summary.json (reconcile against
              an 'itssim -format json' summary with zero tolerance)
  diff        align two traces event-by-event; exit 0 when identical,
              1 when divergent
              -window 50us (fault-injection comparison half-width)
  timeline    bucket a trace by virtual time with sync-wait percentiles
              -bucket 1ms (bucket width)
`

// observeMain runs the observe subcommand and returns the process exit
// code: 0 success (diff: identical), 1 divergence/failed check, 2 usage or
// I/O error.
func observeMain(args []string, out io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(os.Stderr, observeUsage)
		return 2
	}
	switch args[0] {
	case "attribute":
		return observeAttribute(args[1:], out)
	case "diff":
		return observeDiff(args[1:], out)
	case "timeline":
		return observeTimeline(args[1:], out)
	default:
		fmt.Fprintf(os.Stderr, "itssim observe: unknown command %q\n%s", args[0], observeUsage)
		return 2
	}
}

// openTrace opens one trace file as a validated streaming reader.
func openTrace(path string) (*replay.Reader, func(), int) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return nil, nil, 2
	}
	r, err := replay.NewReader(f)
	if err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "itssim observe: %s: %v\n", path, err)
		return nil, nil, 2
	}
	return r, func() { f.Close() }, 0
}

func observeAttribute(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("observe attribute", flag.ContinueOnError)
	format := fs.String("format", "folded", "output format: folded|json")
	check := fs.String("check", "", "reconcile against this 'itssim -format json' summary (zero tolerance)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 || (*format != "folded" && *format != "json") {
		fmt.Fprint(os.Stderr, observeUsage)
		return 2
	}
	r, done, code := openTrace(fs.Arg(0))
	if code != 0 {
		return code
	}
	defer done()
	att, err := replay.Attribute(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return 2
	}

	if *check != "" {
		data, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "itssim observe:", err)
			return 2
		}
		var sum metrics.Summary
		if err := json.Unmarshal(data, &sum); err != nil {
			fmt.Fprintf(os.Stderr, "itssim observe: %s: %v\n", *check, err)
			return 2
		}
		if len(att.Runs) != 1 {
			fmt.Fprintf(os.Stderr, "itssim observe: -check wants a single-run trace, got %d runs\n", len(att.Runs))
			return 2
		}
		if err := att.Runs[0].Check(&sum); err != nil {
			fmt.Fprintln(os.Stderr, "itssim observe: attribution does not reconcile:", err)
			return 1
		}
		fmt.Fprintf(out, "attribution reconciles with %s (zero tolerance)\n", *check)
	}

	switch *format {
	case "json":
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(att); err != nil {
			fmt.Fprintln(os.Stderr, "itssim observe:", err)
			return 2
		}
	default:
		if err := att.WriteFolded(out); err != nil {
			fmt.Fprintln(os.Stderr, "itssim observe:", err)
			return 2
		}
	}
	return 0
}

func observeDiff(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("observe diff", flag.ContinueOnError)
	window := fs.Duration("window", 0, "fault-injection comparison half-width (0 = 50us default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprint(os.Stderr, observeUsage)
		return 2
	}
	ra, doneA, code := openTrace(fs.Arg(0))
	if code != 0 {
		return code
	}
	defer doneA()
	rb, doneB, code := openTrace(fs.Arg(1))
	if code != 0 {
		return code
	}
	defer doneB()
	d, err := replay.Diff(ra, rb, sim.Time(window.Nanoseconds()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return 2
	}
	if err := d.WriteText(out); err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return 2
	}
	if d.Identical() {
		return 0
	}
	return 1
}

func observeTimeline(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("observe timeline", flag.ContinueOnError)
	bucket := fs.Duration("bucket", 0, "bucket width (0 = 1ms default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprint(os.Stderr, observeUsage)
		return 2
	}
	r, done, code := openTrace(fs.Arg(0))
	if code != 0 {
		return code
	}
	defer done()
	tl, err := replay.BuildTimeline(r, sim.Time(bucket.Nanoseconds()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return 2
	}
	if err := tl.WriteText(out); err != nil {
		fmt.Fprintln(os.Stderr, "itssim observe:", err)
		return 2
	}
	return 0
}
