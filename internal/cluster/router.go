package cluster

import (
	"fmt"
	"strings"
)

// Load is one machine's routing-visible state at decision time.
type Load struct {
	// ID is the machine index.
	ID int
	// Queued is the number of requests waiting in the machine's queue;
	// Running the number executing in its current epoch (0 when idle).
	Queued  int
	Running int
	// Health is the machine's EWMA health score in (0,1]: 1.0 is a
	// machine that has never timed out, crashed, or browned out. Only the
	// health-aware router consults it; in a chaos-free fleet it is
	// exactly 1.0 everywhere.
	Health float64
	// Eligible reports whether the machine may accept new requests
	// (false while Down or Draining). Every router skips ineligible
	// machines; when all machines are eligible — every chaos-free fleet —
	// each router's choice is identical to its pre-resilience behavior.
	Eligible bool
}

// InFlight is the machine's total outstanding request count.
func (l Load) InFlight() int { return l.Queued + l.Running }

// Router places arriving requests on machines. Implementations must be
// deterministic pure functions of their own state and the arguments —
// routing is part of the fleet's reproducibility contract.
type Router interface {
	// Name returns the policy name as accepted by NewRouter.
	Name() string
	// Pick chooses a machine for a request from tenant index ti; loads
	// is indexed by machine id and always non-empty. The coordinator
	// only calls Pick while at least one machine is eligible.
	Pick(ti int, loads []Load) int
	// Observe notifies the router that machine m started an epoch
	// serving tenantCounts[ti] requests of each tenant. Routers that
	// ignore history treat it as a no-op.
	Observe(m int, tenantCounts []int)
}

// Router names accepted by NewRouter, in presentation order.
const (
	RoundRobin   = "round-robin"
	LeastLoaded  = "least-loaded"
	PageLocality = "locality"
	HealthAware  = "health"
)

// RouterNames lists the available routing policies.
func RouterNames() []string { return []string{RoundRobin, LeastLoaded, PageLocality, HealthAware} }

// NewRouter builds the named routing policy for a fleet of machines
// serving tenants distinct tenants.
func NewRouter(name string, machines, tenants int) (Router, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", RoundRobin:
		return &roundRobinRouter{}, nil
	case LeastLoaded:
		return &leastLoadedRouter{}, nil
	case PageLocality, "page-locality":
		w := make([][]float64, machines)
		for i := range w {
			w[i] = make([]float64, tenants)
		}
		return &localityRouter{warmth: w}, nil
	case HealthAware, "health-aware":
		return &healthRouter{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown routing policy %q (want %s)",
		name, strings.Join(RouterNames(), ", "))
}

// roundRobinRouter cycles through machines regardless of load or tenant:
// the oblivious baseline. Ineligible machines are skipped in cycle order,
// so with everything eligible the sequence is the classic 0,1,2,…
type roundRobinRouter struct {
	next int
}

func (r *roundRobinRouter) Name() string { return RoundRobin }

func (r *roundRobinRouter) Pick(ti int, loads []Load) int {
	n := len(loads)
	m := r.next % n
	for k := 0; k < n; k++ {
		c := (m + k) % n
		if loads[c].Eligible {
			r.next = (c + 1) % n
			return c
		}
	}
	// No machine eligible (the coordinator parks instead of calling Pick
	// in that state): fall back to the plain cycle.
	r.next = (m + 1) % n
	return m
}

func (r *roundRobinRouter) Observe(m int, tenantCounts []int) {}

// leastLoadedRouter picks the eligible machine with the fewest in-flight
// requests (queued + running), ties broken by lowest id.
type leastLoadedRouter struct{}

func (leastLoadedRouter) Name() string { return LeastLoaded }

func (leastLoadedRouter) Pick(ti int, loads []Load) int {
	return leastLoadedPick(loads)
}

func (leastLoadedRouter) Observe(m int, tenantCounts []int) {}

func leastLoadedPick(loads []Load) int {
	best, bestLoad := -1, 0
	for _, l := range loads {
		if !l.Eligible {
			continue
		}
		if f := l.InFlight(); best < 0 || f < bestLoad {
			best, bestLoad = l.ID, f
		}
	}
	if best < 0 {
		// No machine eligible: place by load alone.
		best, bestLoad = loads[0].ID, loads[0].InFlight()
		for _, l := range loads[1:] {
			if f := l.InFlight(); f < bestLoad {
				best, bestLoad = l.ID, f
			}
		}
	}
	return best
}

// localityRouter steers a tenant's requests toward machines that recently
// served that tenant, approximating page locality: a machine whose DRAM
// and LLC were just warmed by tenant T's working set will fault less on
// T's next request. Each epoch starts with empty caches and a fresh DRAM in
// this model, so warmth is an honest proxy (queue affinity concentrates a
// tenant's requests into shared epochs, where they really do share pages),
// not a literal page-cache hit model — docs/FLEET.md discusses the
// distinction.
type localityRouter struct {
	// warmth[m][ti] decays by half at each of machine m's epoch starts
	// and grows by the number of tenant-ti requests the epoch serves.
	warmth [][]float64
}

func (r *localityRouter) Name() string { return PageLocality }

func (r *localityRouter) Pick(ti int, loads []Load) int {
	best, bestWarmth := -1, 0.0
	for _, l := range loads {
		if !l.Eligible {
			continue
		}
		if w := r.warmth[l.ID][ti]; w > bestWarmth {
			best, bestWarmth = l.ID, w
		}
	}
	if best < 0 {
		// No eligible machine is warm for this tenant: place by load.
		return leastLoadedPick(loads)
	}
	return best
}

func (r *localityRouter) Observe(m int, tenantCounts []int) {
	w := r.warmth[m]
	for ti := range w {
		w[ti] = w[ti]/2 + float64(tenantCounts[ti])
	}
}

// healthRouter picks the eligible machine maximizing health per unit of
// outstanding work (Health / (1 + in-flight)), ties broken by lowest id —
// a least-loaded router that discounts machines observed timing out,
// crashing, or running browned-out/cache-cold epochs. In a chaos-free
// fleet every health score is 1.0 and the choice degenerates to
// least-loaded.
type healthRouter struct{}

func (healthRouter) Name() string { return HealthAware }

func (healthRouter) Pick(ti int, loads []Load) int {
	best, bestScore := -1, 0.0
	for _, l := range loads {
		if !l.Eligible {
			continue
		}
		if s := l.Health / float64(1+l.InFlight()); best < 0 || s > bestScore {
			best, bestScore = l.ID, s
		}
	}
	if best < 0 {
		return leastLoadedPick(loads)
	}
	return best
}

func (healthRouter) Observe(m int, tenantCounts []int) {}
