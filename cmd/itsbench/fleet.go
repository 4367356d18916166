package main

import (
	"fmt"
	"io"

	"itsim/internal/cluster"
	"itsim/internal/core"
	"itsim/internal/policy"
	"itsim/internal/report"
	"itsim/internal/sim"
)

// fleetTenantSpec is the fixed serving mix of the fleet experiment: a
// high-priority latency-sensitive tenant with a tight objective, a
// data-intensive bulk tenant, and a bursty background tenant. Pinned so
// `itsbench -exp fleet` output is a reproducible document, like the
// figure experiments.
const fleetTenantSpec = "name=web,bench=pagerank,rate=3e5,req=6,prio=3,slo=20ms;" +
	"name=train,bench=caffe,rate=2e5,req=5,prio=2,pattern=diurnal,slo=60ms;" +
	"name=batch,bench=randomwalk,rate=1e5,req=4,prio=1,pattern=bursty"

// fleetPolicies are the I/O-mode policies the sweep contrasts: the paper's
// baseline synchronous mode against ITS, across every routing policy.
var fleetPolicies = []policy.Kind{policy.Sync, policy.ITS}

// printFleet runs the fleet serving sweep — every routing policy × Sync/ITS
// over the fixed three-tenant mix — and reports per-tenant tail latency and
// SLO attainment.
func printFleet(w io.Writer, opts core.Options, format string, doc *jsonDoc) error {
	specs, err := cluster.ParseTenantSpec(fleetTenantSpec)
	if err != nil {
		return err
	}
	t := report.NewTable("Fleet serving sweep — 3 machines, routing × policy, per-tenant tails",
		"routing", "policy", "tenant", "p50 lat", "p99 lat", "p99 sync-wait", "SLO attained")
	for _, routing := range cluster.RouterNames() {
		for _, kind := range fleetPolicies {
			res, err := cluster.Run(cluster.Config{
				Machines:      3,
				Policy:        kind,
				ITS:           opts.ITS,
				Routing:       routing,
				Tenants:       specs,
				Scale:         opts.Scale,
				Cores:         opts.Cores,
				Fault:         opts.Fault,
				Chaos:         opts.Chaos,
				SpinBudget:    opts.SpinBudget,
				Tracer:        opts.Tracer,
				GaugeInterval: opts.GaugeInterval,
			})
			if err != nil {
				return err
			}
			doc.Fleet = append(doc.Fleet, res.Summary)
			for _, ten := range res.Summary.Tenants {
				attained := "-"
				if ten.SLONs > 0 {
					attained = fmt.Sprintf("%.1f%%", 100*ten.SLOAttainment)
				}
				t.AddRow(routing, kind.String(), ten.Name,
					sim.Time(ten.Latency.P50Ns).String(), sim.Time(ten.Latency.P99Ns).String(),
					sim.Time(ten.SyncWait.P99Ns).String(), attained)
			}
		}
	}
	return emit(w, t, format)
}
