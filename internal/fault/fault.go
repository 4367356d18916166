// Package fault provides a seeded, fully deterministic fault-injection
// layer for the ULL storage device. Real ultra-low-latency SSDs are not
// the perfectly-behaved 3 µs readers the paper's model assumes: they show
// tail-latency spikes, whole-channel stalls (GC, read-retry voltage
// sweeps) and transient DMA transfer failures. This package models the
// three as independent, per-request Bernoulli processes so the kernel
// swap path, the executor's spin/block decision and ITS's prefetch
// admission can be stress-tested under a misbehaving device.
//
// Determinism is the design constraint: every injector decision is drawn
// from seeded PRNG streams in device-submission order, so the same seed
// and fault config reproduce byte-identical runs. Each fault axis draws
// from its own stream (derived from the seed with distinct tweaks), so
// sweeping one probability never reshuffles the decisions of another.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"itsim/internal/chaos"
	"itsim/internal/prng"
	"itsim/internal/sim"
)

// Stream tweaks: XORed into the seed so the three fault axes draw from
// uncorrelated PRNG streams.
const (
	tailTweak  = 0x7461696c5f737067 // "tail_spg"
	stallTweak = 0x7374616c6c5f6368 // "stall_ch"
	dmaTweak   = 0x646d615f6661696c // "dma_fail"
)

// Defaults applied by New for fields left zero while their probability is
// non-zero.
const (
	DefaultTailMult     = 8.0
	DefaultStallWindow  = 50 * sim.Microsecond
	DefaultRetryMax     = 3
	DefaultRetryBackoff = 1 * sim.Microsecond
)

// Config describes a deterministic fault schedule. The zero value injects
// nothing.
type Config struct {
	// Seed selects the decision streams. Two injectors with the same
	// Config make identical decisions for identical request sequences.
	Seed uint64

	// TailProb is the per-request probability of a tail-latency spike
	// that multiplies the request's device service time by TailMult.
	TailProb float64
	TailMult float64

	// StallProb is the per-request probability that the request's
	// channel stalls for StallWindow before servicing anything else
	// (modelling GC or read-retry voltage sweeps occupying the channel).
	StallProb   float64
	StallWindow sim.Time

	// DMAFailProb is the per-read probability of a transient DMA
	// transfer failure. The kernel retries with exponential backoff up
	// to RetryMax times; the injector never fails a request whose
	// attempt counter has reached RetryMax, so retry loops are bounded
	// by construction. Write-backs never fail (they are asynchronous
	// and the model has no data-loss path to represent).
	DMAFailProb  float64
	RetryMax     int
	RetryBackoff sim.Time
}

// Enabled reports whether the config injects any faults at all. A
// disabled config must leave the simulator on exactly the code path it
// took before this package existed (no PRNG draws, no events, no summary
// fields).
func (c Config) Enabled() bool {
	return c.TailProb > 0 || c.StallProb > 0 || c.DMAFailProb > 0
}

// Validate rejects configs that are nonsensical rather than merely
// incomplete (New applies defaults for the latter). It is the user-input
// gate for the CLIs; programmatic callers may rely on New's clamping.
// The bounds checks are the shared helpers from internal/chaos, so both
// injector grammars reject out-of-range input (probabilities above 1,
// NaN, negatives) with identical semantics.
func (c Config) Validate() error {
	for _, check := range []error{
		chaos.CheckProb("fault: tail probability", c.TailProb),
		chaos.CheckProb("fault: stall probability", c.StallProb),
		chaos.CheckProb("fault: dma-failure probability", c.DMAFailProb),
		chaos.CheckMult("fault: tail multiplier", c.TailMult),
		chaos.CheckDur("fault: stall window", c.StallWindow),
		chaos.CheckDur("fault: retry backoff", c.RetryBackoff),
	} {
		if check != nil {
			return check
		}
	}
	if c.RetryMax < 0 {
		return fmt.Errorf("fault: retry max must be >= 0, got %d", c.RetryMax)
	}
	return nil
}

// withDefaults fills zero-valued knobs whose axis is active.
func (c Config) withDefaults() Config {
	if c.TailMult < 1 {
		c.TailMult = DefaultTailMult
	}
	if c.StallWindow <= 0 {
		c.StallWindow = DefaultStallWindow
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = DefaultRetryBackoff
	}
	return c
}

// Stats counts the faults an injector has actually delivered.
type Stats struct {
	TailSpikes    uint64 `json:"tail_spikes,omitempty"`
	ChannelStalls uint64 `json:"channel_stalls,omitempty"`
	DMAFailures   uint64 `json:"dma_failures,omitempty"`
}

// Injector makes per-request fault decisions. Not safe for concurrent
// use; the simulator is single-threaded per run.
type Injector struct {
	cfg   Config
	tail  *prng.Source
	stall *prng.Source
	dma   *prng.Source
	stats Stats
}

// New builds an injector, applying defaults for zero-valued knobs
// (TailMult 8x, StallWindow 50 µs, RetryMax 3, RetryBackoff 1 µs).
// Probabilities outside [0,1] are clamped by the underlying PRNG's Bool,
// so New never fails; use Config.Validate to reject bad user input.
func New(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		cfg:   cfg,
		tail:  prng.New(cfg.Seed ^ tailTweak),
		stall: prng.New(cfg.Seed ^ stallTweak),
		dma:   prng.New(cfg.Seed ^ dmaTweak),
	}
}

// Config returns the injector's effective (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Stats returns a snapshot of the faults delivered so far.
func (in *Injector) Stats() Stats { return in.stats }

// Tail decides whether this request suffers a tail-latency spike and, if
// so, returns the service-time multiplier.
func (in *Injector) Tail() (mult float64, ok bool) {
	if !in.tail.Bool(in.cfg.TailProb) {
		return 1, false
	}
	in.stats.TailSpikes++
	return in.cfg.TailMult, true
}

// Stall decides whether this request's channel stalls first and, if so,
// returns the stall window.
func (in *Injector) Stall() (window sim.Time, ok bool) {
	if !in.stall.Bool(in.cfg.StallProb) {
		return 0, false
	}
	in.stats.ChannelStalls++
	return in.cfg.StallWindow, true
}

// DMAFail decides whether this read's DMA transfer fails transiently.
// attempt is the zero-based retry counter; once it reaches RetryMax the
// injector always succeeds, bounding every retry loop.
func (in *Injector) DMAFail(attempt int) bool {
	if attempt >= in.cfg.RetryMax {
		return false
	}
	if !in.dma.Bool(in.cfg.DMAFailProb) {
		return false
	}
	in.stats.DMAFailures++
	return true
}

// ParseSpec parses the CLI fault-spec syntax: a comma-separated list of
// key=value pairs. Keys: seed (uint64), tailp/tailx (probability and
// multiplier), stallp/stallw (probability and duration), dmap
// (probability), retries (int), backoff (duration). Durations use Go
// syntax ("50us", "1ms"). An empty spec yields the zero (disabled)
// Config. The result is validated.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for sc := chaos.ScanSpec(spec, ","); sc.Scan(); {
		key, val, ok := sc.KeyValue()
		if !ok {
			return Config{}, fmt.Errorf("fault: malformed spec entry %q (want key=value)", sc.Entry())
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 0, 64)
		case "tailp":
			cfg.TailProb, err = strconv.ParseFloat(val, 64)
		case "tailx":
			cfg.TailMult, err = strconv.ParseFloat(val, 64)
		case "stallp":
			cfg.StallProb, err = strconv.ParseFloat(val, 64)
		case "stallw":
			cfg.StallWindow, err = chaos.ParseDuration(val)
		case "dmap":
			cfg.DMAFailProb, err = strconv.ParseFloat(val, 64)
		case "retries":
			cfg.RetryMax, err = strconv.Atoi(val)
		case "backoff":
			cfg.RetryBackoff, err = chaos.ParseDuration(val)
		default:
			return Config{}, fmt.Errorf("fault: unknown spec key %q (known: %s)", key, strings.Join(specKeys(), ", "))
		}
		if err != nil {
			return Config{}, fmt.Errorf("fault: bad value for %s: %v", key, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

func specKeys() []string {
	keys := []string{"seed", "tailp", "tailx", "stallp", "stallw", "dmap", "retries", "backoff"}
	sort.Strings(keys)
	return keys
}
