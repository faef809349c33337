package system

import (
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
)

// The deep-DRAM acceptance tests: the new generations run clean under
// the independent conformance monitor, and subarray mode actually buys
// the open-row hits it exists for.

// TestCheckedCleanOnNewGenerations: DDR4 (bank groups, tCCD_L/S,
// tRRD_L/S) and LPDDR3 run clean under the full invariant layer,
// with and without subarray row buffers — the differential check
// between device and monitor, both re-deriving the group/subarray rules
// independently.
func TestCheckedCleanOnNewGenerations(t *testing.T) {
	cases := []struct {
		name string
		gen  dram.Generation
		subs int
	}{
		{"ddr4", dram.DDR4, 0},
		{"ddr4-subarrays", dram.DDR4, 4},
		{"lpddr3", dram.LPDDR3, 0},
		{"ddr2-subarrays", dram.DDR2, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			for _, d := range []Design{Conv, GSSSAGM, GSSSAGMSTI} {
				res, err := Run(Config{
					App: appmodel.BluRay(), Gen: c.gen, Design: d,
					Subarrays: c.subs,
					Cycles:    8_000, Seed: 5, PriorityDemand: true,
					Checked: true,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Obs.Checked {
					t.Errorf("%s: report not marked Checked", d)
				}
				if len(res.Obs.Violations) != 0 {
					t.Errorf("%s: violations on a clean run: %v", d, res.Obs.Violations)
				}
				if res.Completed == 0 {
					t.Errorf("%s: no requests completed", d)
				}
			}
		})
	}
}

// rowHitRate is the fraction of column commands that hit an open row
// buffer, aggregated over the per-bank breakdown.
func rowHitRate(rep *obs.Report) float64 {
	var hits, cols int64
	for _, b := range rep.Memory.Banks {
		hits += b.RowHits
		cols += b.Reads + b.Writes
	}
	if cols == 0 {
		return 0
	}
	return float64(hits) / float64(cols)
}

// TestSubarraysRaiseRowHitRate is the tentpole's payoff assertion: on
// the scaled quad-DTV workload, giving each bank MASA-style subarray
// row buffers must measurably raise the open-row hit rate over the
// bank-granular device — same application, same design, same seed.
func TestSubarraysRaiseRowHitRate(t *testing.T) {
	// The conventional design has no SDRAM-aware reordering to hide bank
	// conflicts, so the subarray buffers' contribution shows cleanly.
	base := Config{
		App: appmodel.QuadDTV(), Gen: dram.DDR2, Design: Conv,
		Cycles: 30_000, Seed: 11, PriorityDemand: true,
	}
	flat, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	salp := base
	salp.Subarrays = 4
	masa, err := Run(salp)
	if err != nil {
		t.Fatal(err)
	}
	fr, mr := rowHitRate(flat.Obs), rowHitRate(masa.Obs)
	t.Logf("row-hit rate: bank-granular %.4f, 4 subarrays %.4f", fr, mr)
	if mr-fr < 0.01 {
		t.Fatalf("subarray row-hit gain below 1%%: %.4f -> %.4f", fr, mr)
	}
	if masa.Utilization <= flat.Utilization {
		t.Errorf("subarrays did not raise utilization: %.3f -> %.3f",
			flat.Utilization, masa.Utilization)
	}
}

// TestSubarraysZeroIsDefault: Subarrays 0 and 1 both mean one row buffer
// per bank (the device sees the value as given and normalises it in
// Timing.RowBuffers) and must be result-identical.
func TestSubarraysZeroIsDefault(t *testing.T) {
	base := Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM,
		Cycles: 8_000, Seed: 7, PriorityDemand: true,
	}
	zero, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	one := base
	one.Subarrays = 1
	same, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	// The whole Result, report included: nothing in it echoes the knob,
	// and one row buffer per bank is one code path however it is spelled.
	if !reflect.DeepEqual(zero, same) {
		t.Fatalf("Subarrays=1 diverged from 0: %+v vs %+v", zero, same)
	}
}
