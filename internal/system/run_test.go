package system

import (
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
)

// runTotals are the run's request and stall counts: the report's
// generated, completed and stalled, folded from the cores' own.
type runTotals struct{ generated, completed, stalled int64 }

// settledTotals reads a run's totals mid-run, after settling the
// counters its sleeping cores owe through the current cycle.
func settledTotals(r *Runner) (t runTotals) {
	r.settleAll()
	for _, c := range r.cores {
		t.generated += c.generated
		t.completed += c.completed
		t.stalled += c.stalls
	}
	return t
}

func TestParseDesign(t *testing.T) {
	for _, d := range Designs() {
		got, err := ParseDesign(d.String())
		if err != nil || got != d {
			t.Errorf("ParseDesign(%q) = %v, %v", d.String(), got, err)
		}
	}
	if _, err := ParseDesign("bogus"); err == nil {
		t.Error("want error for unknown design")
	}
}

func TestDesignPredicates(t *testing.T) {
	if Conv.usesGSSEngine() || !SDRAMAware.usesGSSEngine() || !GSSSAGMSTI.usesGSSEngine() {
		t.Error("usesGSSEngine misclassifies")
	}
	if GSS.usesSAGM() || !GSSSAGM.usesSAGM() || !GSSSAGMSTI.usesSAGM() {
		t.Error("usesSAGM misclassifies")
	}
	if GSSSAGM.usesSTI() || !GSSSAGMSTI.usesSTI() {
		t.Error("usesSTI misclassifies")
	}
	if !Conv.usesMemMax() || SDRAMAware.usesMemMax() {
		t.Error("usesMemMax misclassifies")
	}
	if SDRAMAware.pctFor(3, 5) != 1 || SDRAMAwarePFS.pctFor(3, 5) != 5 || GSS.pctFor(3, 5) != 3 {
		t.Error("pctFor misclassifies")
	}
}

func smokeCfg(d Design) Config {
	return Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
		Cycles: 30_000, Seed: 7, PriorityDemand: true,
	}
}

// TestNewRejectsNegativeScalars: New runs Config.Validate first, so a
// direct Config user (a table driver, the sweep service) fails before
// anything simulates.
func TestNewRejectsNegativeScalars(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"cycles", func(c *Config) { c.Cycles = -5 }},
		{"sample-every", func(c *Config) { c.SampleEvery = -1 }},
		{"subarrays", func(c *Config) { c.Subarrays = -1 }},
	} {
		cfg := smokeCfg(GSS)
		tc.set(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: negative value accepted", tc.name)
		}
	}
}

func TestSmokeAllDesigns(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			res, err := Run(smokeCfg(d))
			if err != nil {
				t.Fatal(err)
			}
			if res.Utilization <= 0.05 || res.Utilization > 1 {
				t.Errorf("utilization %v out of range", res.Utilization)
			}
			if res.Completed < 100 {
				t.Errorf("only %d completions", res.Completed)
			}
			if res.LatAll <= 0 {
				t.Errorf("no latency recorded")
			}
			if res.LatDemand <= 0 {
				t.Errorf("no demand latency recorded")
			}
			t.Logf("%-14s util=%.3f latAll=%.0f latDem=%.0f latPri=%.0f done=%d waste=%.2f",
				d, res.Utilization, res.LatAll, res.LatDemand, res.LatPriority, res.Completed, res.WasteFrac)
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(smokeCfg(GSSSAGM))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(smokeCfg(GSSSAGM))
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(a, b) {
		t.Fatalf("same seed gave different results:\n%+v\n%+v", a, b)
	}
}

func TestGSSRouterCountSweep(t *testing.T) {
	// More GSS routers must not break anything; k=0 equals the PFS+RR
	// baseline.
	for _, k := range []int{-1, 1, 3, 9} {
		cfg := smokeCfg(GSSSAGM)
		cfg.GSSRouters = k
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Completed < 100 {
			t.Errorf("k=%d: only %d completions", k, res.Completed)
		}
	}
}

// TestGSSGrantsPinned pins Result.GSSGrants, the GSS output ports' grant
// total behind the activity power model, on ddtv/DDR3 with priority
// demand over 40,000 cycles at the default seed: per GSS design, with
// every router, the three nearest the memory, and none running GSS. A
// design without the GSS engine grants nothing through it.
func TestGSSGrantsPinned(t *testing.T) {
	want := map[Design][3]int64{ // GSSRouters 0, 3, -1
		SDRAMAware:    {7598, 4079, 0},
		SDRAMAwarePFS: {7739, 4124, 0},
		GSS:           {7651, 4076, 0},
		GSSSAGM:       {14333, 8993, 0},
		GSSSAGMSTI:    {14502, 9089, 0},
		Conv:          {0, 0, 0},
	}
	for _, d := range Designs() {
		w, ok := want[d]
		if !ok {
			continue
		}
		for i, k := range []int{0, 3, -1} {
			res, err := Run(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d,
				PriorityDemand: true, GSSRouters: k, Cycles: 40_000})
			if err != nil {
				t.Fatalf("%s GSSRouters=%d: %v", d, k, err)
			}
			if res.GSSGrants != w[i] {
				t.Errorf("%s GSSRouters=%d: GSSGrants = %d, want %d", d, k, res.GSSGrants, w[i])
			}
		}
	}
}

func TestSAGMUsesBL4ModeOnDDR2(t *testing.T) {
	r, err := New(smokeCfg(GSSSAGM))
	if err != nil {
		t.Fatal(err)
	}
	if r.timing.DeviceBL != 4 {
		t.Errorf("SAGM on DDR2 should set BL4 mode, got BL%d", r.timing.DeviceBL)
	}
	r2, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR3, Design: GSSSAGM, Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if r2.timing.DeviceBL != 8 || !r2.timing.OTF {
		t.Errorf("SAGM on DDR3 should keep BL8 OTF, got BL%d OTF=%v", r2.timing.DeviceBL, r2.timing.OTF)
	}
	r3, err := New(smokeCfg(GSS))
	if err != nil {
		t.Fatal(err)
	}
	if r3.timing.DeviceBL != 8 {
		t.Errorf("non-SAGM should stay in BL8 mode, got BL%d", r3.timing.DeviceBL)
	}
}

func TestSAGMReducesWaste(t *testing.T) {
	// The granularity-matching claim (Fig. 2): the SAGM design over-fetches
	// less than the BL8 designs on the same traffic.
	base, err := Run(smokeCfg(GSS))
	if err != nil {
		t.Fatal(err)
	}
	sagm, err := Run(smokeCfg(GSSSAGM))
	if err != nil {
		t.Fatal(err)
	}
	if sagm.WasteFrac >= base.WasteFrac {
		t.Errorf("SAGM waste %.3f should be below BL8 waste %.3f", sagm.WasteFrac, base.WasteFrac)
	}
}

// sameResult compares the deterministic scalar content of two results
// plus the per-core breakdowns.
func sameResult(a, b Result) bool {
	if a.Utilization != b.Utilization || a.LatAll != b.LatAll ||
		a.LatDemand != b.LatDemand || a.LatPriority != b.LatPriority ||
		a.Generated != b.Generated || a.Completed != b.Completed ||
		a.Device != b.Device || a.Fairness != b.Fairness {
		return false
	}
	if len(a.Obs.NIs) != len(b.Obs.NIs) {
		return false
	}
	for i, x := range a.Obs.NIs {
		y := b.Obs.NIs[i]
		if x.Core != y.Core || x.Completed != y.Completed || x.Beats != y.Beats || x.LatencySum != y.LatencySum {
			return false
		}
	}
	return true
}
