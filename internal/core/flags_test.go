package core

import (
	"flag"
	"path/filepath"
	"testing"

	"itsim/internal/sim"
)

// TestRunFlagsOptions: the shared run flags parse once and turn into the
// options every command runs with; each malformed value is an error.
func TestRunFlagsOptions(t *testing.T) {
	parse := func(args ...string) (Options, error) {
		var f RunFlags
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		f.Bind(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return f.Options()
	}

	opts, err := parse("-cores", "2", "-gauge-interval", "100us", "-spin-budget", "5us",
		"-prefetch-throttle", "0.75", "-faults", "seed=42,tailp=0.05,tailx=8",
		"-trace-out", filepath.Join(t.TempDir(), "t.jsonl"), "-trace-format", "jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cores != 2 || opts.GaugeInterval != 100*sim.Microsecond || opts.SpinBudget != 5*sim.Microsecond ||
		opts.ITS.PrefetchThrottleFraction != 0.75 || !opts.Fault.Enabled() || opts.Tracer == nil {
		t.Errorf("flags not carried into options: %+v", opts)
	}
	if err := opts.Tracer.Close(); err != nil {
		t.Fatal(err)
	}

	for name, args := range map[string][]string{
		"negative cores":    {"-cores", "-1"},
		"bad faults":        {"-faults", "tailp=oops"},
		"negative spin":     {"-spin-budget", "-1us"},
		"throttle above 1":  {"-prefetch-throttle", "1.5"},
		"bad trace format":  {"-trace-out", filepath.Join(t.TempDir(), "x"), "-trace-format", "perfetto"},
		"bad trace filter":  {"-trace-out", filepath.Join(t.TempDir(), "y"), "-trace-filter", "pid=abc"},
		"unwritable output": {"-trace-out", filepath.Join(t.TempDir(), "no", "such", "dir")},
	} {
		if _, err := parse(args...); err == nil {
			t.Errorf("%s: accepted %q", name, args)
		}
	}
}
