package gospawn_test

import (
	"testing"

	"itsim/internal/analysis/atest"
	"itsim/internal/analysis/gospawn"
)

// TestGospawn checks both polarities: every host-concurrency form is
// flagged in a deterministic package (itsim/internal/sched fixture), the
// runJobs worker pool of itsim/internal/core passes despite its goroutines
// and channels, and anything else in that package — RunGrid included — is
// still flagged.
func TestGospawn(t *testing.T) {
	atest.Run(t, "../testdata", gospawn.Analyzer,
		"itsim/internal/sched", "itsim/internal/core")
}
