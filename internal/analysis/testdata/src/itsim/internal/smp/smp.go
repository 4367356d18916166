// Package smp is the fixture's simulator root: the deterministic set is the
// import closure of smp, cluster and replay, so the packages the analyzer
// tests treat as deterministic are the ones imported here (and what they
// import in turn). core and cmd/clitool stay outside.
package smp

import (
	_ "itsim/internal/chaos"
	_ "itsim/internal/exec"
	_ "itsim/internal/fault"
	_ "itsim/internal/kernel"
	_ "itsim/internal/sched"
	_ "itsim/internal/storage"
	_ "itsim/internal/workload"
)
