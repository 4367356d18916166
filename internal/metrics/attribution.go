package metrics

import (
	"fmt"

	"itsim/internal/sim"
)

// CoreAttribution is one core's folded interval totals as recovered from a
// trace replay (internal/replay): the sum of its dispatch spans, context
// switch charges and scheduler-idle spans. It intentionally mirrors the
// conservation-bearing fields of Core so the two can be reconciled with
// zero tolerance.
type CoreAttribution struct {
	Core              int      `json:"core"`
	CPUTime           sim.Time `json:"cpu_time_ns"`
	ContextSwitchTime sim.Time `json:"context_switch_time_ns"`
	SchedulerIdle     sim.Time `json:"scheduler_idle_ns"`
}

// Total is the attributed virtual time: on a clean trace it equals the
// core's local clock.
func (a CoreAttribution) Total() sim.Time {
	return a.CPUTime + a.ContextSwitchTime + a.SchedulerIdle
}

// CheckAttribution reconciles replayed per-core attribution totals against
// this summary's conservation ledger — virtual-time arithmetic, zero
// tolerance. Every category must match its per-core counter exactly and the
// attributed total must equal the core's local clock (CPUTime +
// SchedulerIdle + ContextSwitchTime == LocalClock). A summary without a
// per-core section predates the per-core ledger at one core and is rejected.
func (s *Summary) CheckAttribution(atts []CoreAttribution) error {
	if len(s.Cores) == 0 {
		return fmt.Errorf("metrics: summary has no per-core section; regenerate it with the current simulator")
	}
	covered := make(map[int]bool, len(atts))
	for _, att := range atts {
		var c *Core
		for _, sc := range s.Cores {
			if sc.ID == att.Core {
				c = sc
				break
			}
		}
		if c == nil {
			return fmt.Errorf("metrics: attribution for core %d but summary has no such core", att.Core)
		}
		covered[att.Core] = true
		if att.CPUTime != c.CPUTime || att.ContextSwitchTime != c.ContextSwitchTime || att.SchedulerIdle != c.SchedulerIdle {
			return fmt.Errorf("metrics: core %d attribution (cpu %v, switch %v, idle %v) != ledger (cpu %v, switch %v, idle %v)",
				att.Core, att.CPUTime, att.ContextSwitchTime, att.SchedulerIdle,
				c.CPUTime, c.ContextSwitchTime, c.SchedulerIdle)
		}
		if att.Total() != c.LocalClock {
			return fmt.Errorf("metrics: core %d attributed total %v != local clock %v", att.Core, att.Total(), c.LocalClock)
		}
	}
	// A core that parked for the whole run emits no events and so has no
	// attribution entry; that is consistent only with an all-zero ledger.
	for _, sc := range s.Cores {
		if covered[sc.ID] {
			continue
		}
		if sc.CPUTime != 0 || sc.ContextSwitchTime != 0 || sc.SchedulerIdle != 0 {
			return fmt.Errorf("metrics: core %d has ledger time (cpu %v, switch %v, idle %v) but no attributed events",
				sc.ID, sc.CPUTime, sc.ContextSwitchTime, sc.SchedulerIdle)
		}
	}
	return nil
}
