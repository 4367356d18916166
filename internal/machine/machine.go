// Package machine names the simulated platform of the paper's evaluation
// (§4.1): a single core with an L1 and a 16-way 8 MB LLC (halved when the
// policy needs a pre-execute cache), the mini kernel's page tables and swap
// path, the SCHED_RR scheduler with NICE time slices, and the ULL device
// behind a PCIe 5.x ×4 link.
//
// Config and ProcessSpec are aliases of the internal/exec types; runs build
// and execute through internal/smp (smp.New with Cores=1 is this platform).
// Its tests exercise the one-core machine end to end.
package machine

import "itsim/internal/exec"

// Config sizes the simulated platform. The zero value is not usable; start
// from DefaultConfig.
type Config = exec.Config

// ProcessSpec declares one process of a run.
type ProcessSpec = exec.ProcessSpec

// DefaultConfig returns the paper's §4.1 platform.
func DefaultConfig() Config { return exec.DefaultConfig() }
