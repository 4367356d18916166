// Fixture for the gospawn allowlist: itsim/internal/core is the
// host-parallel batch layer, and its runJobs worker pool may use goroutines
// and channels freely — everything else in the package may not, including
// the entry points that delegate to runJobs.
package core

// RunGrid is a host-parallel entry point, but the real ones delegate their
// fan-out to runJobs, so a goroutine here is flagged.
func RunGrid(jobs []func()) {
	for _, j := range jobs {
		go j() // want `go statement in deterministic core package itsim/internal/core`
	}
}

// runJobs is the shared worker pool: sanctioned.
func runJobs(n int, f func(int)) {
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) { f(i); done <- struct{}{} }(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
}

// stray is NOT on the allowlist: host concurrency outside the sanctioned
// worker pool is flagged even in this package.
func stray(f func()) {
	go f() // want `go statement in deterministic core package itsim/internal/core`
}
