package check

import (
	"strings"
	"testing"

	"aanoc/internal/obs"
)

func TestCheckerCollects(t *testing.T) {
	var c Checker
	c.Reportf(12, "dram", "tFAW", "fifth ACT at %d", 12)
	c.Reportf(13, "noc/request", "credit-conservation", "vc0 over depth")
	if got := obs.TotalViolations(c.Violations()); got != 2 {
		t.Fatalf("TotalViolations = %d, want 2", got)
	}
	vs := c.Violations()
	if len(vs) != 2 {
		t.Fatalf("Violations() len = %d, want 2", len(vs))
	}
	want := obs.Violation{Cycle: 12, Component: "dram", Kind: "tFAW", Detail: "fifth ACT at 12"}
	if vs[0] != want {
		t.Errorf("violation[0] = %+v, want %+v", vs[0], want)
	}
	if !strings.Contains(vs[0].String(), "cycle 12: dram: tFAW") {
		t.Errorf("String() = %q", vs[0].String())
	}
}

func TestCheckerLimit(t *testing.T) {
	var c Checker
	for i := 0; i < DefaultLimit+7; i++ {
		c.Reportf(int64(i), "dram", "tCCD", "violation %d", i)
	}
	vs := c.Violations()
	if len(vs) != DefaultLimit+1 {
		t.Fatalf("collected %d violations, want the limit %d and a dropped entry", len(vs), DefaultLimit)
	}
	if last := vs[DefaultLimit]; last != obs.Dropped(7) {
		t.Fatalf("last entry %+v, want %+v", last, obs.Dropped(7))
	}
	if n := obs.TotalViolations(vs); n != DefaultLimit+7 {
		t.Fatalf("TotalViolations = %d, want %d", n, DefaultLimit+7)
	}
	// Asking again does not stack a second dropped entry.
	if again := c.Violations(); len(again) != DefaultLimit+1 {
		t.Fatalf("second Violations() has %d entries", len(again))
	}
}

// TestCheckerDefaultLimit: a run that reaches the limit exactly records
// every violation and needs no dropped entry.
func TestCheckerDefaultLimit(t *testing.T) {
	var c Checker
	for i := 0; i < DefaultLimit; i++ {
		c.Reportf(int64(i), "dram", "tCCD", "violation")
	}
	vs := c.Violations()
	if len(vs) != DefaultLimit {
		t.Fatalf("collected %d, want DefaultLimit %d and no dropped entry", len(vs), DefaultLimit)
	}
	if obs.TotalViolations(vs) != DefaultLimit {
		t.Fatalf("TotalViolations = %d, want %d", obs.TotalViolations(vs), DefaultLimit)
	}
}
