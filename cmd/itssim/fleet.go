package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"itsim/internal/chaos"
	"itsim/internal/cluster"
	"itsim/internal/core"
	"itsim/internal/metrics"
	"itsim/internal/policy"
	"itsim/internal/sim"
)

const fleetUsage = `usage: itssim fleet [flags]

Run a fleet of simulated machines serving multi-tenant open-loop request
traffic under one I/O-mode policy and one routing policy, and report
per-tenant latency and SLO attainment.

Tenant specs are ';'-separated lists of comma-separated key=value pairs:
  name, bench, rate (req/s), requests (alias req), prio, scale,
  pattern (steady|diurnal|bursty|multiperiod), period, amp, slo, seed,
  deadline (per-attempt timeout), retries, hedge (true/false)
e.g. -tenants 'name=web,bench=pagerank,rate=4e5,req=16,slo=20ms;bench=caffe,req=8'

Routing policies: round-robin, least-loaded, locality, health.

Chaos specs (-chaos) are comma-separated key=value pairs:
  seed, crashr/crashd (hard crashes: rate per virtual second per machine,
  down window), warm/warmx (post-down cache-cold warm-up window and
  slowdown), brownr/brownd/brownx (brownout rate, window, slowdown),
  flapr/flapd (graceful leave/rejoin rate and off window)
e.g. -chaos 'seed=1,crashr=20,crashd=2ms,brownr=40,brownx=4'

flags:
`

// fleetMain is the `itssim fleet` entry point. Exit codes: 0 success,
// 1 run error, 2 usage error.
func fleetMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("itssim fleet", flag.ContinueOnError)
	fs.SetOutput(out)
	fs.Usage = func() {
		fmt.Fprint(out, fleetUsage)
		fs.PrintDefaults()
	}
	var (
		machines   = fs.Int("machines", 3, "number of simulated machines in the fleet")
		slots      = fs.Int("slots", 0, "max requests batched into one machine epoch (0 = default)")
		tenants    = fs.String("tenants", "bench=caffe,req=8,prio=3,slo=50ms;bench=pagerank,req=8,prio=1", "tenant spec (see above)")
		routing    = fs.String("routing", cluster.RoundRobin, "routing policy: "+strings.Join(cluster.RouterNames(), "|"))
		policyName = fs.String("policy", "ITS", "I/O-mode policy every machine runs")
		seed       = fs.Uint64("seed", 0, "fleet seed perturbing every tenant's trace and arrival streams (0 = pinned defaults)")
		scale      = fs.Float64("scale", 1.0, "multiplier on every tenant's per-request workload scale")
		format     = fs.String("format", "text", "summary format: text|json")
		verbose    = fs.Bool("v", false, "per-epoch detail")
		chaosSpec  = fs.String("chaos", "", "machine-level chaos spec: crashes, brownouts, flapping (see above)")
		shedDepth  = fs.Int("shed", 0, "fleet queue-depth threshold above which non-top-priority arrivals are shed (0 = off)")
		runFlags   core.RunFlags
	)
	runFlags.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(out, "itssim fleet: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if err := runFleet(out, fleetParams{
		machines: *machines, slots: *slots, tenants: *tenants, routing: *routing,
		policy: *policyName, seed: *seed, scale: *scale,
		format: *format, verbose: *verbose, chaos: *chaosSpec, shed: *shedDepth,
		RunFlags: runFlags,
	}); err != nil {
		fmt.Fprintln(out, "itssim fleet:", err)
		return 1
	}
	return 0
}

type fleetParams struct {
	machines, slots  int
	tenants, routing string
	policy           string
	seed             uint64
	scale            float64
	format           string
	verbose          bool
	chaos            string
	shed             int
	core.RunFlags
}

func runFleet(out io.Writer, p fleetParams) error {
	if p.format != "text" && p.format != "json" {
		return fmt.Errorf("unknown format %q (want text or json)", p.format)
	}
	kind, err := policy.KindByName(p.policy)
	if err != nil {
		return err
	}
	specs, err := cluster.ParseTenantSpec(p.tenants)
	if err != nil {
		return err
	}
	chaosCfg, err := chaos.ParseSpec(p.chaos)
	if err != nil {
		return err
	}
	if p.shed < 0 {
		return fmt.Errorf("negative shed depth %d", p.shed)
	}
	opts, err := p.RunFlags.Options()
	if err != nil {
		return err
	}
	res, err := cluster.Run(cluster.Config{
		Machines:      p.machines,
		Slots:         p.slots,
		Policy:        kind,
		ITS:           opts.ITS,
		Routing:       p.routing,
		Tenants:       specs,
		Scale:         p.scale,
		Seed:          p.seed,
		Cores:         opts.Cores,
		Fault:         opts.Fault,
		Chaos:         chaosCfg,
		ShedDepth:     p.shed,
		SpinBudget:    opts.SpinBudget,
		Tracer:        opts.Tracer,
		GaugeInterval: opts.GaugeInterval,
	})
	if cerr := opts.Tracer.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("finalizing trace: %w", cerr)
	}
	if err != nil {
		return err
	}

	if p.format == "json" {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Summary)
	}
	writeFleetText(out, res, p.verbose)
	return nil
}

// writeFleetText renders the fleet summary: header, per-tenant serving
// table, per-machine utilization table, optional per-epoch detail.
func writeFleetText(out io.Writer, res *cluster.Result, verbose bool) {
	s := res.Summary
	fmt.Fprintf(out, "fleet policy=%s routing=%s machines=%d slots=%d\n",
		s.Policy, s.Routing, s.Machines, s.Slots)
	fmt.Fprintf(out, "  makespan   %v\n", sim.Time(s.MakespanNs))
	fmt.Fprintf(out, "  requests   %d submitted, %d completed\n", s.Requests, s.Completed)
	if inj := s.Injection; inj != nil {
		fmt.Fprintf(out, "  injected   tail=%d stall=%d dma=%d (retries %d)\n",
			inj.TailSpikes, inj.ChannelStalls, inj.DMAFailures, inj.DMARetries)
	}
	if ch := s.Chaos; ch != nil {
		fmt.Fprintf(out, "  chaos      crash=%d flap=%d brownout=%d rehomed=%d\n",
			ch.Crashes, ch.Flaps, ch.Brownouts, ch.Rehomed)
		fmt.Fprintf(out, "  resilience timeout=%d retry=%d hedge=%d (won %d) shed=%d failed=%d\n",
			ch.Timeouts, ch.Retries, ch.Hedges, ch.HedgeWins, ch.Shed, ch.Failed)
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  tenant\tbench\treq\tp50-lat\tp99-lat\tp50-syncwait\tp99-syncwait\tslo\tattained")
	for _, t := range s.Tenants {
		fmt.Fprintf(w, "  %s\t%s\t%d\t%v\t%v\t%v\t%v\t%s\t%s\n",
			t.Name, t.Bench, t.Completed,
			sim.Time(t.Latency.P50Ns), sim.Time(t.Latency.P99Ns),
			sim.Time(t.SyncWait.P50Ns), sim.Time(t.SyncWait.P99Ns),
			sloString(t), attainString(t))
	}
	w.Flush()

	w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "  machine\tepochs\treq\tbusy\tidle\twaiting\tstolen\tmajflt\tdemoted")
	for _, m := range s.PerMachine {
		fmt.Fprintf(w, "  %d\t%d\t%d\t%v\t%v\t%v\t%v\t%d\t%d\n",
			m.ID, m.Epochs, m.Requests, sim.Time(m.BusyNs), sim.Time(m.IdleNs),
			sim.Time(m.WaitingNs), sim.Time(m.StolenNs), m.MajorFaults, m.DemotedWaits)
	}
	w.Flush()

	if verbose {
		w = tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  epoch\tprocs\tmakespan\tidle\tstolen\tmajflt")
		for _, run := range res.Epochs {
			fmt.Fprintf(w, "  %s\t%d\t%v\t%v\t%v\t%d\n",
				run.Batch, len(run.Procs), run.Makespan, run.TotalIdle(),
				run.TotalStolen(), run.TotalMajorFaults())
		}
		w.Flush()
	}
}

// sloString renders the tenant's objective, "-" when none was set.
func sloString(t metrics.TenantStats) string {
	if t.SLONs <= 0 {
		return "-"
	}
	return sim.Time(t.SLONs).String()
}

// attainString renders SLO attainment, "-" when no SLO was set.
func attainString(t metrics.TenantStats) string {
	if t.SLONs <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*t.SLOAttainment)
}
