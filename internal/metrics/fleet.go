package metrics

// Fleet-level summaries (internal/cluster). These serialized structs are
// //itslint:frozen like the single-machine Summary: growing them later
// means a regenerated frozen.json, with omitempty on every new field unless
// breaking the byte layout of old documents is the point.

// TenantStats digests one tenant's serving experience over a fleet run.
//
//itslint:frozen
type TenantStats struct {
	// Name is the tenant's name from the tenant spec.
	Name string `json:"name"`
	// Bench is the benchmark each of the tenant's requests executes.
	Bench string `json:"bench"`
	// Requests is the number of requests the tenant submitted; Completed
	// the number that finished (equal on a successful run).
	Requests  uint64 `json:"requests"`
	Completed uint64 `json:"completed"`
	// SLONs is the tenant's latency objective in nanoseconds; 0 means no
	// SLO was set and SLOAttainment is meaningless (renderers print "-").
	SLONs int64 `json:"slo_ns"`
	// SLOAttainment is the fraction of completed requests whose
	// end-to-end latency met SLONs.
	SLOAttainment float64 `json:"slo_attainment"`
	// Latency is the end-to-end request latency distribution
	// (arrival → completion, including queueing).
	Latency HistogramSnapshot `json:"latency"`
	// SyncWait is the distribution of per-request synchronous storage
	// busy-wait (the paper's stolen-or-wasted window), summed per request.
	SyncWait HistogramSnapshot `json:"sync_wait"`
	// DeadlineNs is the tenant's per-request deadline in nanoseconds; 0
	// means requests never time out. All resilience counters below are
	// omitempty so deadline-free, chaos-free runs keep their historical
	// byte layout.
	DeadlineNs int64 `json:"deadline_ns,omitempty"`
	// TimedOut counts attempt timeouts (one request can time out several
	// times across retries); Retries counts re-submissions after them.
	TimedOut uint64 `json:"timed_out,omitempty"`
	Retries  uint64 `json:"retries,omitempty"`
	// Hedges counts hedged duplicate dispatches; HedgeWins how many
	// requests the hedge finished first.
	Hedges    uint64 `json:"hedges,omitempty"`
	HedgeWins uint64 `json:"hedge_wins,omitempty"`
	// Shed counts requests rejected at admission by priority-aware load
	// shedding; Failed counts requests that exhausted deadline + retries.
	// Neither is included in Completed.
	Shed   uint64 `json:"shed,omitempty"`
	Failed uint64 `json:"failed,omitempty"`
}

// MachineStats digests one machine's activity over a fleet run.
//
//itslint:frozen
type MachineStats struct {
	// ID is the machine's index in the cluster.
	ID int `json:"id"`
	// Epochs is how many batch epochs the machine executed; Requests how
	// many requests those epochs served.
	Epochs   uint64 `json:"epochs"`
	Requests uint64 `json:"requests"`
	// BusyNs is fleet time the machine spent executing epochs; IdleNs is
	// the rest of the fleet makespan.
	BusyNs int64 `json:"busy_ns"`
	IdleNs int64 `json:"idle_ns"`
	// WaitingNs aggregates the machine's in-epoch CPU waiting time (the
	// paper's Fig 4a quantity, summed over epochs); StolenNs the time its
	// ITS machinery converted into useful work.
	WaitingNs int64 `json:"waiting_ns"`
	StolenNs  int64 `json:"stolen_ns"`
	// MajorFaults sums major page faults across the machine's epochs.
	MajorFaults uint64 `json:"major_faults"`
	// DemotedWaits counts spin-budget demotions under fault injection;
	// omitted when zero so healthy-device summaries stay compact.
	DemotedWaits uint64 `json:"demoted_waits,omitempty"`
	// Chaos accounting, all omitempty so chaos-free fleets keep their
	// historical byte layout. Crashes/Flaps/Brownouts count windows that
	// actually hit this machine; DownNs is time spent out of service
	// (crashed, flapped off, or rejoining cache-cold counts as in
	// service); Rehomed counts requests moved off this machine's queue by
	// a crash or drain.
	Crashes   uint64 `json:"crashes,omitempty"`
	Flaps     uint64 `json:"flaps,omitempty"`
	Brownouts uint64 `json:"brownouts,omitempty"`
	DownNs    int64  `json:"down_ns,omitempty"`
	Rehomed   uint64 `json:"rehomed,omitempty"`
}

// FleetSummary is the JSON-serializable digest of one cluster run.
//
//itslint:frozen
type FleetSummary struct {
	// Policy and Routing name the I/O-mode policy every machine ran and
	// the routing policy that placed requests.
	Policy  string `json:"policy"`
	Routing string `json:"routing"`
	// Machines and Slots echo the cluster shape (N machines, at most
	// Slots requests batched per epoch).
	Machines int `json:"machines"`
	Slots    int `json:"slots"`
	// MakespanNs is the fleet time at which the last request completed.
	MakespanNs int64 `json:"makespan_ns"`
	// Requests / Completed count over all tenants.
	Requests  uint64 `json:"requests"`
	Completed uint64 `json:"completed"`
	// Tenants holds per-tenant serving stats in tenant-spec order.
	Tenants []TenantStats `json:"tenants"`
	// PerMachine holds per-machine stats ascending by machine id.
	PerMachine []MachineStats `json:"per_machine"`
	// Injection aggregates fault-injector activity across machines; nil
	// (and omitted) when no injector was attached.
	Injection *InjectionStats `json:"fault_injection,omitempty"`
	// Chaos aggregates machine-level chaos and request-lifecycle
	// resilience activity across the fleet; nil (and omitted) when no
	// chaos was injected and no tenant used deadlines/hedging, so
	// historical fleet output is byte-identical.
	Chaos *ChaosStats `json:"chaos,omitempty"`
}

// ChaosStats aggregates fleet resilience activity: machine-level chaos
// windows that hit, and the request-lifecycle reactions to them.
//
//itslint:frozen
type ChaosStats struct {
	// Crashes / Flaps / Brownouts count machine windows that applied
	// (windows dropped against an ineligible state are not counted).
	Crashes   uint64 `json:"crashes"`
	Flaps     uint64 `json:"flaps"`
	Brownouts uint64 `json:"brownouts"`
	// Rehomed counts requests deterministically moved to another machine
	// after a crash or drain.
	Rehomed uint64 `json:"rehomed"`
	// Timeouts / Retries / Hedges / HedgeWins / Shed / Failed sum the
	// per-tenant resilience counters.
	Timeouts  uint64 `json:"timeouts"`
	Retries   uint64 `json:"retries"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	Shed      uint64 `json:"shed"`
	Failed    uint64 `json:"failed"`
}
