package exec

import "fmt"

// CheckFolded cross-checks the auditor's per-category folded totals (the
// attribution intervals a trace replay recovers: dispatch spans, context
// switch charges, scheduler-idle spans) against the core's conservation
// ledger at run end. Passing means `observe attribute` output reconciles
// with the metrics summary by construction — zero tolerance, virtual-time
// arithmetic only.
func (c *Core) CheckFolded() error {
	cpu, sw, idle := c.Aud.Folded()
	if cpu != c.Met.CPUTime || sw != c.Met.ContextSwitchTime || idle != c.Met.SchedulerIdle {
		return fmt.Errorf("exec: core %d folded intervals (cpu %v, switch %v, idle %v) != ledger (cpu %v, switch %v, idle %v)",
			c.ID, cpu, sw, idle, c.Met.CPUTime, c.Met.ContextSwitchTime, c.Met.SchedulerIdle)
	}
	return nil
}
