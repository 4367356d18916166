package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark run of one workload.
type config struct {
	seed uint64
	// seconds is the host time each measured pass repeats the workload
	// for; a pass always makes at least minReps (traced: minTracedReps)
	// repetitions.
	seconds time.Duration
	trace   bool
	// size multiplies the workload's simulated work (1 = the benchmark).
	size float64
	// outDir receives scratch input files and the traced run's spans and
	// CPU profile.
	outDir string
}

const (
	// A run builds the workload's inputs in setupBatches batches, each
	// repeating the build for at least setupBatch; setup_s is the median
	// over batches of each batch's fastest build.
	setupBatches = 5
	setupBatch   = 100 * time.Millisecond

	minReps       = 3
	minTracedReps = 2
	// minAttributed is the share of profiled time the simulator layers and
	// the Go runtime must account for; the rest is the benchmark's own code.
	minAttributed = 95.0
)

// spanNames are the spans recorded around the layers' public functions;
// setup marks those made while building the inputs rather than in a
// repetition. Each is reported as <name>_s.
var spanNames = []struct {
	name  string
	setup bool
}{{"smp.new", false}, {"smp.run", false}, {"metrics.summary", false}, {"cluster.run", false}, {"trace.write", true}}

// probeNames are the layer probes reported as <name>_ns and <name>_allocs;
// the smp.New probe is reported as smp.new_us and smp.new_kb.
var probeNames = []string{"workload.next", "trace.decode", "sim.event", "cache.accessfill", "pagetable.walk", "prefetch.candidates"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is one series of repetitions of a workload.
type pass struct {
	walls []float64 // seconds inside simulator calls
	// paired is each wall scaled to the reference's nominal speed, and
	// refs the reference's ns per op, on a pass made with pair.
	paired, refs []float64
	allocs       []float64 // heap bytes allocated
	rss          []float64 // peak resident bytes
	first        *repOut
	// runs counts simulated runs checked, bad those that failed a check.
	runs, bad int
}

// repeat runs j's repetition until budget has passed and at least atLeast
// repetitions are done, checking each. With pair, the reference is timed
// before each repetition. want is the expected digest; when empty the
// first repetition sets it.
func repeat(j *job, rec *recorder, name string, budget time.Duration, atLeast int, pair bool, want *string, log io.Writer) (*pass, error) {
	p := &pass{}
	start := time.Now()
	for rep := 0; rep < atLeast || time.Since(start) < budget; rep++ {
		key := name + "/" + strconv.Itoa(rep)
		// Every repetition, and the reference, starts from the same heap:
		// collected, with its free pages returned, so that no collection
		// runs beside it and a repetition's peak RSS is its own.
		debug.FreeOSMemory()
		refNs := 0.0
		if pair {
			refNs = reference()
			debug.FreeOSMemory()
		}
		s := rec.begin("rep", key)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		out, err := j.rep(rec, key)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return nil, err
		}
		rss, err := peakRSS()
		if err != nil {
			return nil, err
		}
		v, err := check(out, rec, key)
		rec.end(s)
		if err != nil {
			return nil, err
		}
		if *want == "" {
			*want = v.digest
		}
		if v.digest != *want {
			fmt.Fprintf(log, "%s: summary digest %s, want %s\n", key, v.digest, *want)
			v.bad = v.runs
		}
		if v.bad > 0 {
			fmt.Fprintf(log, "%s: %d of %d runs failed a check\n", key, v.bad, v.runs)
		}
		p.walls = append(p.walls, out.wall.Seconds())
		if pair {
			p.paired = append(p.paired, out.wall.Seconds()*refNominalNs/refNs)
			p.refs = append(p.refs, refNs)
		}
		p.allocs = append(p.allocs, float64(m1.TotalAlloc-m0.TotalAlloc))
		p.rss = append(p.rss, rss)
		p.runs += v.runs
		p.bad += v.bad
		if p.first == nil {
			p.first = out
		}
	}
	fmt.Fprintf(log, "%s: %d repetitions, median %.3fs in the simulator", name, len(p.walls), median(p.walls))
	if pair {
		fmt.Fprintf(log, ", %.3fs at the reference's nominal speed (reference %.1f ns/op)", median(p.paired), median(p.refs))
	}
	fmt.Fprintln(log)
	return p, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mib = 1 << 20

// measure runs one workload: set-ups, the untraced pass, and with
// cfg.trace the traced pass and the layer probes. golden maps workload
// names to their seed-0 digests.
func measure(w workloadDef, cfg config, golden map[string]string, log io.Writer) (*result, error) {
	pinned := cfg.seed == 0 && cfg.size == 1
	var want string
	if pinned {
		want = golden[w.name]
	}

	setup, j, err := setupTime(w, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "%s: set-up %.3gs\n", w.name, setup)
	budget, atLeast := cfg.seconds, minReps
	if cfg.trace {
		budget, atLeast = cfg.seconds/2, minTracedReps
	}
	plain, err := repeat(j, nil, w.name, budget, atLeast, true, &want, log)
	if cerr := j.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if pinned && golden[w.name] == "" {
		return nil, fmt.Errorf("golden.json has no digest for %s; this run's is %s", w.name, want)
	}

	res := &result{Metrics: make(map[string]metric)}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	c := countSim(plain.first)
	wall := median(plain.walls)
	res.Attempted, res.Failed = plain.runs, plain.bad

	if !cfg.trace {
		paired := median(plain.paired)
		put("setup_s", setup, "s")
		put("minstr_per_s", float64(c.instructions)/paired/1e6, "Minstr/s")
		put("requests_per_s", float64(c.requests)/paired, "1/s")
		// Per simulated run: a fleet's epoch count, and with it its
		// allocation, moves with the seed's arrivals.
		put("alloc_mb", median(plain.allocs)/float64(c.smpRuns)/mib, "MiB/run")
		put("peak_rss_mb", median(plain.rss)/mib, "MiB")
		res.Correct = res.Failed == 0
		return res, nil
	}

	t, err := tracedPass(w, cfg, &want, log)
	if err != nil {
		return nil, err
	}
	res.Attempted += t.runs
	res.Failed += t.bad
	probes, err := runProbes(cfg.seed, cfg.size)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}

	shares := t.prof.shares
	if attributed := 100 - shares["bench"]; attributed < minAttributed {
		return nil, fmt.Errorf("%s: layers and runtime account for %.1f%% of profiled time, want >= %.0f%%",
			w.name, attributed, minAttributed)
	}
	for _, l := range layers {
		put(l+".share", shares[l], "%")
	}
	put("runtime.gc_share", shares["runtime.gc"], "%")

	// Per-repetition host time of a layer, from its share of the profile.
	reps := float64(len(t.walls))
	perRep := func(share float64) float64 { return share / 100 * float64(t.prof.total.Nanoseconds()) / reps }
	put("exec.host_ns_per_instr", ratio(perRep(shares["exec"]), float64(c.instructions)), "ns")
	put("preexec.host_ns_per_instr", ratio(perRep(shares["preexec"]), float64(c.pxInstrs)), "ns")
	put("preexec.its_share", t.prof.itsPreexec, "%")
	put("cluster.host_us_per_epoch", ratio(median(t.walls)*1e6, float64(c.epochs)), "us")
	put("smp.setup_share", 100*ratio(float64(t.prof.newTime), float64(t.prof.total)), "%")

	totals := t.rec.totals()
	for _, n := range spanNames {
		// Per repetition, or per set-up: the traced pass sets up once.
		total := totals[n.name].Total
		if !n.setup {
			total /= reps
		}
		put(n.name+"_s", total, "s")
	}
	if err := t.rec.write(filepath.Join(cfg.outDir, "spans-"+w.name+".json")); err != nil {
		return nil, err
	}

	for _, p := range probeNames {
		put(p+"_ns", probes[p].ns, "ns")
		put(p+"_allocs", probes[p].allocs, "allocs")
	}
	put("smp.new_us", probes["smp.new"].ns/1e3, "us")
	put("smp.new_kb", probes["smp.new"].bytes/1024, "KiB")

	putCounts(put, c)
	putModel(put, plain.first)
	put("bench.trace_overhead", 100*(1-wall/median(t.walls)), "%")
	put("bench.failed_frac", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.Correct = res.Failed == 0
	return res, nil
}

// setupTime builds w's inputs in setupBatches batches and returns the
// median over batches of the fastest build in each, with the last build's
// job. Most set-ups take microseconds; one such build varies by half with
// the collector's phase and other load at that instant, and the median of
// many builds by 40 % between runs, while the fastest of a batch holds.
func setupTime(w workloadDef, cfg config) (float64, *job, error) {
	var fastest []float64
	var j *job
	for b := 0; b < setupBatches; b++ {
		best := -1.0
		for start := time.Now(); best < 0 || time.Since(start) < setupBatch; {
			if j != nil {
				if err := j.close(); err != nil {
					return 0, nil, err
				}
			}
			t0 := time.Now()
			var err error
			if j, err = w.setup(cfg.seed, cfg.size, cfg.outDir, nil); err != nil {
				return 0, nil, fmt.Errorf("%s setup: %w", w.name, err)
			}
			if d := time.Since(t0).Seconds(); best < 0 || d < best {
				best = d
			}
		}
		fastest = append(fastest, best)
	}
	return median(fastest), j, nil
}

// traced is the traced pass: its repetitions, the host time it took
// (set-up included), its spans and its folded CPU profile.
type traced struct {
	*pass
	wall time.Duration
	rec  *recorder
	prof attribution
}

// tracedPass builds the workload once more and repeats it with spans
// recorded and the CPU profiler on, then folds the profile.
func tracedPass(w workloadDef, cfg config, want *string, log io.Writer) (*traced, error) {
	path := filepath.Join(cfg.outDir, w.name+".cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	t := &traced{rec: newRecorder()}
	t0 := time.Now()
	t.pass, err = func() (*pass, error) {
		defer pprof.StopCPUProfile()
		j, err := w.setup(cfg.seed, cfg.size, cfg.outDir, t.rec)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		// Unpaired: the reference would count as the benchmark's own time.
		p, err := repeat(j, t.rec, w.name+"/traced", cfg.seconds/2, minTracedReps, false, want, log)
		if cerr := j.close(); err == nil {
			err = cerr
		}
		return p, err
	}()
	t.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	samples, err := foldProfile(path)
	if err != nil {
		return nil, err
	}
	if t.prof = attributeSamples(samples); t.prof.total == 0 {
		return nil, fmt.Errorf("%s: the CPU profile has no samples", w.name)
	}
	return t, nil
}

func putCounts(put func(string, float64, string), c simCounts) {
	f := func(x uint64) float64 { return float64(x) }
	put("exec.instructions", f(c.instructions), "count")
	put("exec.demotions", f(c.demotions), "count")
	put("cache.llc_accesses", f(c.llcAccesses), "count")
	put("cache.llc_miss_ratio", ratio(f(c.llcMisses), f(c.llcAccesses)), "ratio")
	put("kernel.major_faults", f(c.majorFaults), "count")
	put("kernel.minor_faults", f(c.minorFaults), "count")
	put("prefetch.issued", f(c.pfIssued), "count")
	put("prefetch.useful_ratio", ratio(f(c.pfUseful), f(c.pfIssued)), "ratio")
	put("preexec.instrs", f(c.pxInstrs), "count")
	put("preexec.valid_ratio", ratio(f(c.pxValid), f(c.pxInstrs)), "ratio")
	put("sched.context_switches", f(c.contextSwitches), "count")
	put("storage.sync_wait_p99_ns", float64(c.syncWaitP99), "sim_ns")
	put("smp.steals", f(c.steals), "count")
	put("cluster.epochs", f(c.epochs), "count")
	put("cluster.requests_per_epoch", ratio(f(c.requests), f(c.epochs)), "ratio")
	put("cluster.timeouts", f(c.timeouts), "count")
	put("cluster.retries", f(c.retries), "count")
	put("cluster.hedges", f(c.hedges), "count")
	put("cluster.rehomed", f(c.rehomed), "count")
	put("cluster.failed", f(c.failed), "count")
	put("fault.dma_retries", f(c.dmaRetries), "count")
}

// putModel reports what the simulated design itself produced; 0 where the
// workload does not produce the quantity.
func putModel(put func(string, float64, string), o *repOut) {
	var bandErr, saving, slo float64
	if o.fleet != nil {
		slo = webSLOAttainment(&o.fleet.Summary)
	} else {
		saving = itsIdleSaving(o.cells)
		bandErr, _ = fig4aBandErr(o.cells)
	}
	put("model.fig4a_band_err", bandErr, "x")
	put("model.its_idle_saving", saving, "ratio")
	put("model.web_slo_attainment", slo, "ratio")
}

// resetPeakRSS restarts the kernel's peak-resident-set count (VmHWM) at
// the current resident set, so that peakRSS measures one repetition. A
// whole run's peak would be set by its single worst collector overshoot.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the process's peak resident set (VmHWM) in bytes since the
// last resetPeakRSS.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
