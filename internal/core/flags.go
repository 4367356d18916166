package core

import (
	"flag"
	"fmt"
	"time"

	"itsim/internal/fault"
	"itsim/internal/obs"
	"itsim/internal/policy"
	"itsim/internal/sim"
)

// RunFlags are the run flags every simulator command shares (itssim,
// itssim fleet, itsbench): core count, event tracing, device faults and the
// graceful-degradation knobs. Bind declares them; Options validates them and
// turns them into run options.
type RunFlags struct {
	Cores            int
	TraceOut         string
	TraceFormat      string
	TraceFilter      string
	GaugeInterval    time.Duration
	Faults           string
	SpinBudget       time.Duration
	PrefetchThrottle float64
}

// Bind declares the shared run flags on fs, parsing into f.
func (f *RunFlags) Bind(fs *flag.FlagSet) {
	fs.IntVar(&f.Cores, "cores", 0, "simulated cores per machine (0 = 1; >1 adds per-core runqueues and work stealing)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write the simulation event trace to this file (empty = off)")
	fs.StringVar(&f.TraceFormat, "trace-format", "chrome", "trace format: chrome|jsonl")
	fs.StringVar(&f.TraceFilter, "trace-filter", "", "comma-separated event types and pid=N entries (empty = all)")
	fs.DurationVar(&f.GaugeInterval, "gauge-interval", 0, "virtual-time gauge sampling interval, e.g. 100us (0 = off)")
	fs.StringVar(&f.Faults, "faults", "", "device fault-injection spec, e.g. 'seed=42,tailp=0.01,tailx=8,stallp=0.001,dmap=0.005' (empty = off; fleets mix the seed per machine)")
	fs.DurationVar(&f.SpinBudget, "spin-budget", 0, "demote synchronous waits predicted to exceed this budget to async switches (0 = off)")
	fs.Float64Var(&f.PrefetchThrottle, "prefetch-throttle", 0, "ITS skips prefetch walks when this fraction of storage channels is busy, e.g. 0.75 (0 = off)")
}

// Options validates the flags and returns the run options they select. With
// TraceOut set, the options carry an open tracer the caller must Close to
// finalize the file; it is opened last, so a validation error leaves no file
// behind.
func (f RunFlags) Options() (Options, error) {
	if f.Cores < 0 {
		return Options{}, fmt.Errorf("negative core count %d", f.Cores)
	}
	faultCfg, err := fault.ParseSpec(f.Faults)
	if err != nil {
		return Options{}, err
	}
	if f.SpinBudget < 0 {
		return Options{}, fmt.Errorf("negative spin budget %v", f.SpinBudget)
	}
	if f.PrefetchThrottle < 0 || f.PrefetchThrottle > 1 {
		return Options{}, fmt.Errorf("prefetch-throttle %v outside [0,1]", f.PrefetchThrottle)
	}
	trc, err := obs.TracerFromFlags(f.TraceOut, f.TraceFormat, f.TraceFilter)
	if err != nil {
		return Options{}, err
	}
	return Options{
		Cores:         f.Cores,
		Tracer:        trc,
		GaugeInterval: sim.Time(f.GaugeInterval.Nanoseconds()),
		Fault:         faultCfg,
		SpinBudget:    sim.Time(f.SpinBudget.Nanoseconds()),
		ITS:           policy.ITSConfig{PrefetchThrottleFraction: f.PrefetchThrottle},
	}, nil
}
