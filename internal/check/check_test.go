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
	if got := c.Count(); got != 2 {
		t.Fatalf("Count() = %d, want 2", got)
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
	c := Checker{Limit: 3}
	for i := 0; i < 10; i++ {
		c.Reportf(int64(i), "dram", "tCCD", "violation %d", i)
	}
	if len(c.Violations()) != 3 {
		t.Fatalf("collected %d violations, want limit 3", len(c.Violations()))
	}
	if c.Dropped != 7 {
		t.Fatalf("Dropped = %d, want 7", c.Dropped)
	}
	if c.Count() != 10 {
		t.Fatalf("Count() = %d, want 10", c.Count())
	}
}

func TestCheckerDefaultLimit(t *testing.T) {
	var c Checker
	for i := 0; i < DefaultLimit+5; i++ {
		c.Reportf(int64(i), "dram", "tCCD", "violation")
	}
	if len(c.Violations()) != DefaultLimit {
		t.Fatalf("collected %d, want DefaultLimit %d", len(c.Violations()), DefaultLimit)
	}
	if c.Dropped != 5 {
		t.Fatalf("Dropped = %d, want 5", c.Dropped)
	}
}
