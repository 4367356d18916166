package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"itsim/internal/chaos"
	"itsim/internal/sim"
	"itsim/internal/workload"
)

// Tenant-spec limits; ParseTenantSpec and Validate reject values outside
// them so a malformed CLI spec cannot request an unbounded simulation.
const (
	// MaxRequestsPerTenant bounds one tenant's request count.
	MaxRequestsPerTenant = 100_000
	// MaxTenants bounds the number of tenants per fleet.
	MaxTenants = 64
	// MaxRetries bounds one request's re-submission budget.
	MaxRetries = 16
)

// DefaultTenantScale is the per-request workload scale when a tenant spec
// leaves it unset: small enough that a request is a sub-millisecond epoch
// contribution, matching serving-style work rather than a batch job.
const DefaultTenantScale = 0.02

// TenantSpec declares one serving tenant: which benchmark its requests
// run, how they arrive, and how they are judged.
type TenantSpec struct {
	// Name labels the tenant in summaries and traces.
	Name string
	// Bench is the benchmark each request executes (workload names, e.g.
	// "caffe", "pagerank").
	Bench string
	// Rate is the open-loop arrival rate in requests per virtual second;
	// <= 0 means every request arrives at t = 0 (a closed burst).
	Rate float64
	// Requests is how many requests the tenant submits in total.
	Requests int
	// Priority is the SCHED_RR priority of the tenant's processes
	// (larger = higher).
	Priority int
	// Scale is the per-request workload scale (0 = DefaultTenantScale);
	// the cluster's global Scale multiplies it.
	Scale float64
	// Pattern/Period/Amp shape the arrival rate over time (see
	// workload.ArrivalConfig).
	Pattern workload.ArrivalPattern
	Period  sim.Time
	Amp     float64
	// SLO is the tenant's end-to-end latency objective; 0 = no SLO
	// (attainment unreported).
	SLO sim.Time
	// Seed overrides the benchmark profile's pinned seed as the base of
	// the tenant's per-request trace seeds; 0 keeps the profile seed.
	Seed uint64
	// Deadline is the per-attempt timeout: an attempt not completed
	// within it is cancelled (its machine keeps the wasted work) and the
	// request retries or fails. 0 = attempts never time out.
	Deadline sim.Time
	// Retries is how many re-submissions a timed-out request gets before
	// it is marked failed; meaningful only with a Deadline.
	Retries int
	// Hedge enables hedged requests: once the tenant's observed p99
	// latency is known, a duplicate attempt dispatches after that delay
	// and the first completion wins (the loser is cancelled).
	Hedge bool
}

// Validate rejects nonsensical tenant parameters. It is the user-input
// gate shared by ParseTenantSpec and Config.Validate.
func (t TenantSpec) Validate() error {
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("cluster: tenant with empty name")
	}
	if strings.ContainsAny(t.Name, ",;=") {
		return fmt.Errorf("cluster: tenant name %q contains a spec delimiter", t.Name)
	}
	if _, err := workload.ProfileFor(t.Bench, 1.0); err != nil {
		return fmt.Errorf("cluster: tenant %s: %w", t.Name, err)
	}
	if math.IsNaN(t.Rate) || math.IsInf(t.Rate, 0) {
		return fmt.Errorf("cluster: tenant %s: rate must be finite, got %v", t.Name, t.Rate)
	}
	if t.Requests < 1 || t.Requests > MaxRequestsPerTenant {
		return fmt.Errorf("cluster: tenant %s: requests must be in [1,%d], got %d",
			t.Name, MaxRequestsPerTenant, t.Requests)
	}
	if t.Priority < 1 || t.Priority > 99 {
		return fmt.Errorf("cluster: tenant %s: priority must be in [1,99], got %d", t.Name, t.Priority)
	}
	if math.IsNaN(t.Scale) || math.IsInf(t.Scale, 0) || t.Scale < 0 {
		return fmt.Errorf("cluster: tenant %s: scale must be finite and >= 0, got %v", t.Name, t.Scale)
	}
	if math.IsNaN(t.Amp) || math.IsInf(t.Amp, 0) || t.Amp < 0 || t.Amp > 1 {
		return fmt.Errorf("cluster: tenant %s: amplitude must be in [0,1], got %v", t.Name, t.Amp)
	}
	if t.Period < 0 {
		return fmt.Errorf("cluster: tenant %s: period must be >= 0, got %v", t.Name, t.Period)
	}
	if t.SLO < 0 {
		return fmt.Errorf("cluster: tenant %s: slo must be >= 0, got %v", t.Name, t.SLO)
	}
	if t.Deadline < 0 {
		return fmt.Errorf("cluster: tenant %s: deadline must be >= 0, got %v", t.Name, t.Deadline)
	}
	if t.Retries < 0 || t.Retries > MaxRetries {
		return fmt.Errorf("cluster: tenant %s: retries must be in [0,%d], got %d", t.Name, MaxRetries, t.Retries)
	}
	if t.Retries > 0 && t.Deadline == 0 {
		return fmt.Errorf("cluster: tenant %s: retries require a deadline", t.Name)
	}
	return nil
}

// scale returns the tenant's effective per-request workload scale under
// the cluster-wide multiplier.
func (t TenantSpec) scale(global float64) float64 {
	s := t.Scale
	if s <= 0 {
		s = DefaultTenantScale
	}
	if global > 0 {
		s *= global
	}
	return s
}

// ParseTenantSpec parses the CLI tenant-spec syntax: tenants separated by
// ';', each a comma-separated list of key=value pairs. Keys: name, bench,
// rate (req/s), requests (alias req), prio, scale, pattern
// (steady/diurnal/bursty/multiperiod), period (Go duration), amp, slo (Go
// duration), seed, deadline (Go duration, per-attempt timeout), retries
// (re-submissions after timeouts), hedge (bool). Omitted keys default to:
// name "t<index>", bench "caffe", rate 0 (burst at t = 0), requests 8,
// prio 1, scale DefaultTenantScale, pattern steady, period 2ms, amp 0.5,
// slo 0, seed 0, deadline 0 (no timeout), retries 0, hedge false.
// Every parsed tenant is validated and names must be unique.
func ParseTenantSpec(spec string) ([]TenantSpec, error) {
	var out []TenantSpec
	for tenants := chaos.ScanSpec(spec, ";"); tenants.Scan(); {
		if len(out) >= MaxTenants {
			return nil, fmt.Errorf("cluster: more than %d tenants", MaxTenants)
		}
		t := TenantSpec{
			Name:     "t" + strconv.Itoa(len(out)),
			Bench:    workload.Caffe,
			Requests: 8,
			Priority: 1,
			Scale:    DefaultTenantScale,
			Pattern:  workload.Steady,
			Period:   2 * sim.Millisecond,
			Amp:      0.5,
		}
		for fields := chaos.ScanSpec(tenants.Entry(), ","); fields.Scan(); {
			key, val, ok := fields.KeyValue()
			if !ok {
				return nil, fmt.Errorf("cluster: malformed tenant entry %q (want key=value)", fields.Entry())
			}
			var err error
			switch key {
			case "name":
				t.Name = val
			case "bench":
				t.Bench = strings.ToLower(val)
			case "rate":
				t.Rate, err = strconv.ParseFloat(val, 64)
			case "requests", "req":
				t.Requests, err = strconv.Atoi(val)
			case "prio":
				t.Priority, err = strconv.Atoi(val)
			case "scale":
				t.Scale, err = strconv.ParseFloat(val, 64)
			case "pattern":
				t.Pattern, err = workload.ParsePattern(val)
			case "period":
				t.Period, err = chaos.ParseDuration(val)
			case "amp":
				t.Amp, err = strconv.ParseFloat(val, 64)
			case "slo":
				t.SLO, err = chaos.ParseDuration(val)
			case "seed":
				t.Seed, err = strconv.ParseUint(val, 0, 64)
			case "deadline":
				t.Deadline, err = chaos.ParseDuration(val)
			case "retries":
				t.Retries, err = strconv.Atoi(val)
			case "hedge":
				t.Hedge, err = strconv.ParseBool(val)
			default:
				return nil, fmt.Errorf("cluster: unknown tenant key %q", key)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: tenant key %s: %w", key, err)
			}
		}
		if err := t.Validate(); err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty tenant spec")
	}
	seen := make(map[string]bool, len(out))
	for _, t := range out {
		if seen[t.Name] {
			return nil, fmt.Errorf("cluster: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return out, nil
}

// Seed-mixing tweaks. Per-request trace seeds and per-tenant arrival
// streams derive from the tenant's base seed with distinct mixers so two
// tenants running the same benchmark still produce decorrelated requests,
// and sweeping arrival parameters never reshuffles trace contents.
const (
	// requestSeedMix is the 64-bit golden-ratio constant (splitmix64's
	// increment): multiplying the request sequence number by it spreads
	// consecutive requests across the seed space.
	requestSeedMix = 0x9E3779B97F4A7C15
	// tenantSeedTweak decorrelates same-bench tenants.
	tenantSeedTweak = 0x74656e616e745f73 // "tenant_s"
	// arrivalSeedTweak separates the arrival stream from trace seeds.
	arrivalSeedTweak = 0x6172726976616c73 // "arrivals"
)

// baseSeed is the tenant's trace-seed base: the explicit override, or the
// benchmark profile's pinned seed, mixed with the tenant index (so
// same-bench tenants differ) and the cluster seed (so -seed perturbs the
// whole fleet; XOR with 0 is the identity).
//
//itslint:seedmixer
func (t TenantSpec) baseSeed(tenantIdx int, clusterSeed uint64) uint64 {
	base := t.Seed
	if base == 0 {
		// The profile exists — Validate ran before any seed derivation.
		p, err := workload.ProfileFor(t.Bench, 1.0)
		if err != nil {
			panic(err)
		}
		base = p.Seed
	}
	return base ^ uint64(tenantIdx+1)*tenantSeedTweak ^ clusterSeed
}

// requestSeed derives request seq's trace seed from the tenant base.
//
//itslint:seedmixer
func requestSeed(base uint64, seq int) uint64 {
	return base ^ uint64(seq+1)*requestSeedMix
}
