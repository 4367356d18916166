// Package chaos provides seeded, fully deterministic machine-level fault
// injection for the fleet simulation (internal/cluster) — the cluster-scope
// sibling of internal/fault's device-level injector. Where fault makes one
// ULL device misbehave per request, chaos makes whole machines misbehave
// over time: crash/restart windows (the machine disappears, killing its
// in-flight epoch), brownouts (a window during which every epoch the
// machine starts runs a configurable factor slower — thermal throttling,
// a noisy neighbour, a failing fan), and flapping (repeated graceful
// leave/rejoin cycles — rolling restarts, preemptible instances).
//
// Determinism is the same design constraint as in internal/fault: every
// window is drawn from seeded PRNG streams derived only from the chaos
// seed and the machine id — never from simulation state — so the same
// seed reproduces byte-identical schedules, and each axis draws from its
// own stream (distinct seed tweaks) so sweeping one rate never reshuffles
// another axis's windows. A zero-rate axis allocates no PRNG and draws
// nothing, making the all-zero Config byte-inert by construction.
package chaos

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"itsim/internal/prng"
	"itsim/internal/sim"
)

// Stream tweaks: XORed into the seed so the three chaos axes draw from
// uncorrelated PRNG streams.
const (
	crashTweak = 0x63726173685f6d63 // "crash_mc"
	brownTweak = 0x62726f776e5f6d63 // "brown_mc"
	flapTweak  = 0x666c61705f6d6163 // "flap_mac"
)

// machineTweak mixes the machine id into per-machine stream seeds (the
// multiplier is splitmix64's golden-ratio increment), so machines fail on
// decorrelated schedules from one chaos seed.
const machineTweak = 0x9E3779B97F4A7C15

// Defaults applied by New for fields left zero while their axis is active.
// Timescales match the fleet's: epochs are hundreds of microseconds to
// milliseconds, so a crash takes a machine out for a few epochs and a
// brownout spans roughly one.
const (
	DefaultCrashDown = 2 * sim.Millisecond
	DefaultWarm      = 2 * sim.Millisecond
	DefaultWarmMult  = 2.0
	DefaultBrownDur  = 1 * sim.Millisecond
	DefaultBrownMult = 4.0
	DefaultFlapDown  = 1 * sim.Millisecond
)

// MaxRate bounds every axis rate (events per virtual second, per machine):
// beyond this the schedule degenerates into a window every < 100 ns —
// denser than any epoch — and the coordinator would spend the run
// processing chaos transitions instead of requests.
const MaxRate = 1e7

// Config describes a deterministic machine-chaos schedule. The zero value
// injects nothing and is byte-inert.
type Config struct {
	// Seed selects the per-machine decision streams. Two injectors with
	// the same Config produce identical schedules.
	Seed uint64

	// CrashRate is the rate (events per virtual second, per machine) of
	// hard crashes: the machine drops to Down immediately, its in-flight
	// epoch is aborted and every queued request is re-homed. After
	// CrashDown the machine rejoins cache-cold: for Warm it is in the
	// Rejoining state and epochs it starts run WarmMult slower.
	CrashRate float64
	CrashDown sim.Time
	Warm      sim.Time
	WarmMult  float64

	// BrownRate is the rate of brownout windows: for BrownDur the machine
	// is Degraded and every epoch it starts runs BrownMult slower. The
	// machine keeps serving — slowly — which is exactly the failure mode
	// naive routing handles worst.
	BrownRate float64
	BrownDur  sim.Time
	BrownMult float64

	// FlapRate is the rate of graceful leave/rejoin cycles: the machine
	// drains (finishes its in-flight epoch, accepts nothing new, queued
	// requests re-home immediately), goes Down for FlapDown, then rejoins
	// through the same Rejoining warm-up as a crash.
	FlapRate float64
	FlapDown sim.Time
}

// Enabled reports whether the config injects any chaos at all. A disabled
// config must leave the fleet on exactly the code path it took before this
// package existed: no PRNG draws, no events, no summary fields.
func (c Config) Enabled() bool {
	return c.CrashRate > 0 || c.BrownRate > 0 || c.FlapRate > 0
}

// Bounds helpers. These are the shared user-input gates for spec-style
// knobs; internal/fault's Config.Validate reuses them so the two injector
// grammars reject bad input with identical semantics.

// CheckProb rejects probabilities outside [0, 1] (NaN included: no
// comparison admits it).
func CheckProb(name string, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("%s must be in [0,1], got %v", name, p)
	}
	return nil
}

// CheckRate rejects event rates that are negative, non-finite, or beyond
// max (0 disables the axis).
func CheckRate(name string, r, max float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
		return fmt.Errorf("%s must be finite and >= 0, got %v", name, r)
	}
	if r > max {
		return fmt.Errorf("%s must be <= %v, got %v", name, max, r)
	}
	return nil
}

// CheckMult rejects slowdown multipliers below 1 (0 means "use the
// default" and is accepted).
func CheckMult(name string, m float64) error {
	if m == 0 {
		return nil
	}
	if math.IsNaN(m) || math.IsInf(m, 0) || m < 1 {
		return fmt.Errorf("%s must be >= 1, got %v", name, m)
	}
	return nil
}

// CheckDur rejects negative durations.
func CheckDur(name string, d sim.Time) error {
	if d < 0 {
		return fmt.Errorf("%s must be >= 0, got %v", name, d)
	}
	return nil
}

// SpecScanner walks the list grammar the -chaos, -faults and -tenants
// specs share: entries separated by one separator, the spaces around each
// entry trimmed, empty entries skipped. It cuts entries off the list in
// place, so scanning allocates nothing.
type SpecScanner struct {
	rest, sep, entry string
}

// ScanSpec returns a scanner over list's sep-separated entries.
func ScanSpec(list, sep string) SpecScanner { return SpecScanner{rest: list, sep: sep} }

// Scan advances to the next non-empty entry; it reports false at the end
// of the list.
func (s *SpecScanner) Scan() bool {
	for s.rest != "" {
		s.entry, s.rest, _ = strings.Cut(s.rest, s.sep)
		if s.entry = strings.TrimSpace(s.entry); s.entry != "" {
			return true
		}
	}
	return false
}

// Entry returns the current entry, trimmed.
func (s *SpecScanner) Entry() string { return s.entry }

// KeyValue splits the current entry at its first '=' into a lower-cased
// key and a value, both trimmed; ok is false when the entry has no '='.
func (s *SpecScanner) KeyValue() (key, val string, ok bool) {
	key, val, ok = strings.Cut(s.entry, "=")
	return strings.ToLower(strings.TrimSpace(key)), strings.TrimSpace(val), ok
}

// ParseDuration converts a Go duration literal ("250us", "2ms") to virtual
// time: the duration syntax of every spec grammar.
func ParseDuration(val string) (sim.Time, error) {
	d, err := time.ParseDuration(val)
	return sim.Time(d.Nanoseconds()), err
}

// Validate rejects configs that are nonsensical rather than merely
// incomplete (New applies defaults for the latter). It is the user-input
// gate for the CLIs.
func (c Config) Validate() error {
	for _, check := range []error{
		CheckRate("chaos: crash rate", c.CrashRate, MaxRate),
		CheckRate("chaos: brownout rate", c.BrownRate, MaxRate),
		CheckRate("chaos: flap rate", c.FlapRate, MaxRate),
		CheckDur("chaos: crash downtime", c.CrashDown),
		CheckDur("chaos: rejoin warm-up", c.Warm),
		CheckDur("chaos: brownout window", c.BrownDur),
		CheckDur("chaos: flap downtime", c.FlapDown),
		CheckMult("chaos: warm multiplier", c.WarmMult),
		CheckMult("chaos: brownout multiplier", c.BrownMult),
	} {
		if check != nil {
			return check
		}
	}
	return nil
}

// withDefaults fills zero-valued knobs whose axis is active.
func (c Config) withDefaults() Config {
	if c.CrashDown <= 0 {
		c.CrashDown = DefaultCrashDown
	}
	if c.Warm <= 0 {
		c.Warm = DefaultWarm
	}
	if c.WarmMult < 1 {
		c.WarmMult = DefaultWarmMult
	}
	if c.BrownDur <= 0 {
		c.BrownDur = DefaultBrownDur
	}
	if c.BrownMult < 1 {
		c.BrownMult = DefaultBrownMult
	}
	if c.FlapDown <= 0 {
		c.FlapDown = DefaultFlapDown
	}
	return c
}

// Injector derives per-machine chaos schedules from one validated Config.
type Injector struct {
	cfg Config
}

// New builds an injector, applying defaults for zero-valued knobs
// (CrashDown 2 ms, Warm 2 ms ×2.0, BrownDur 1 ms ×4.0, FlapDown 1 ms).
// Use Config.Validate to reject bad user input first.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg.withDefaults()}
}

// Config returns the injector's effective (defaulted) configuration.
func (in *Injector) Config() Config { return in.cfg }

// Machine returns machine id's schedule: three independent lazy window
// streams. Schedules for distinct ids are decorrelated; the same (seed,
// id) pair always yields the same schedule.
func (in *Injector) Machine(id int) *Schedule {
	mix := uint64(id+1) * machineTweak
	c := &in.cfg
	return &Schedule{
		Crash: newStream(c.CrashRate, c.Seed^crashTweak^mix),
		Brown: newStream(c.BrownRate, c.Seed^brownTweak^mix),
		Flap:  newStream(c.FlapRate, c.Seed^flapTweak^mix),
	}
}

// Schedule is one machine's chaos timeline: a lazy, strictly increasing
// stream of window start times per axis. The consumer (the fleet
// coordinator) peeks the earliest applicable start, applies or drops it
// against its state machine, and advances the stream — schedule times
// never depend on what the consumer does with them.
type Schedule struct {
	Crash *Stream
	Brown *Stream
	Flap  *Stream
}

// Next returns the earliest pending window start across the three axes
// (Never when every axis is disabled or exhausted).
func (s *Schedule) Next() sim.Time {
	t := s.Crash.Peek()
	if b := s.Brown.Peek(); b < t {
		t = b
	}
	if f := s.Flap.Peek(); f < t {
		t = f
	}
	return t
}

// Never is the no-pending-window sentinel.
const Never = sim.Time(math.MaxInt64)

// Stream generates one axis's window start times: a homogeneous Poisson
// process at the axis rate, drawn lazily. A zero rate yields a stream that
// never fires and owns no PRNG (byte-inert by construction).
type Stream struct {
	rng       *prng.Source
	ratePerNs float64
	next      sim.Time
}

func newStream(ratePerSec float64, seed uint64) *Stream {
	s := &Stream{}
	if ratePerSec <= 0 {
		s.next = Never
		return s
	}
	s.rng = prng.New(seed)
	s.ratePerNs = ratePerSec / 1e9
	s.next = s.draw(0)
	return s
}

// draw samples the next start strictly after from: an exponential gap at
// the axis rate, floored at 1 ns so the stream is strictly increasing.
func (s *Stream) draw(from sim.Time) sim.Time {
	u := s.rng.Float64()
	gap := -math.Log(1-u) / s.ratePerNs
	g := sim.Time(gap)
	if g < 1 {
		g = 1
	}
	return from + g
}

// Peek returns the pending window start without consuming it.
func (s *Stream) Peek() sim.Time { return s.next }

// Advance consumes the pending start and draws the next one. Calling
// Advance on a disabled stream is a no-op.
func (s *Stream) Advance() {
	if s.rng == nil {
		return
	}
	s.next = s.draw(s.next)
}

// ParseSpec parses the CLI chaos-spec syntax: a comma-separated list of
// key=value pairs, the same grammar as -faults. Keys: seed (uint64),
// crashr (crashes per virtual second per machine), crashd (down window,
// Go duration), warm (rejoin warm-up duration), warmx (warm-up slowdown
// multiplier), brownr (brownouts per second), brownd (window), brownx
// (slowdown multiplier), flapr (graceful leave/rejoin per second), flapd
// (off duration). An empty spec yields the zero (disabled, byte-inert)
// Config. The result is validated.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	for sc := ScanSpec(spec, ","); sc.Scan(); {
		key, val, ok := sc.KeyValue()
		if !ok {
			return Config{}, fmt.Errorf("chaos: malformed spec entry %q (want key=value)", sc.Entry())
		}
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseUint(val, 0, 64)
		case "crashr":
			cfg.CrashRate, err = strconv.ParseFloat(val, 64)
		case "crashd":
			cfg.CrashDown, err = ParseDuration(val)
		case "warm":
			cfg.Warm, err = ParseDuration(val)
		case "warmx":
			cfg.WarmMult, err = strconv.ParseFloat(val, 64)
		case "brownr":
			cfg.BrownRate, err = strconv.ParseFloat(val, 64)
		case "brownd":
			cfg.BrownDur, err = ParseDuration(val)
		case "brownx":
			cfg.BrownMult, err = strconv.ParseFloat(val, 64)
		case "flapr":
			cfg.FlapRate, err = strconv.ParseFloat(val, 64)
		case "flapd":
			cfg.FlapDown, err = ParseDuration(val)
		default:
			return Config{}, fmt.Errorf("chaos: unknown spec key %q (known: %s)", key, strings.Join(specKeys(), ", "))
		}
		if err != nil {
			return Config{}, fmt.Errorf("chaos: bad value for %s: %v", key, err)
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

func specKeys() []string {
	keys := []string{"seed", "crashr", "crashd", "warm", "warmx", "brownr", "brownd", "brownx", "flapr", "flapd"}
	sort.Strings(keys)
	return keys
}
