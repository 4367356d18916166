package cluster

import (
	"errors"
	"testing"

	"itsim/internal/workload"
)

// TestRunRejectsOversizedScale: the tenant scale and the fleet multiplier
// pass Validate one by one, but their product scales the footprint past
// workload.MaxFootprintBytes; Run refuses it before the first epoch
// instead of panicking in the request path.
func TestRunRejectsOversizedScale(t *testing.T) {
	tenants, err := ParseTenantSpec("bench=caffe,req=1,scale=1000")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Machines: 1, Tenants: tenants, Scale: 1000}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if _, err := Run(cfg); !errors.Is(err, workload.ErrScale) {
		t.Fatalf("Run: %v, want ErrScale", err)
	}
}
