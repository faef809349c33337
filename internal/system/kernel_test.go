package system

import (
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/trace"
)

// runSkip executes one configuration with idle-skip forced on or off and
// returns the complete Result (including the full observability report).
func runSkip(t *testing.T, cfg Config, skip bool) Result {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetIdleSkip(skip)
	r.RunTo(r.cfg.Cycles)
	return r.Finish()
}

// TestIdleSkipEquivalence is the kernel refactor's acceptance gate: for
// every design, a run with activity-driven idle-skip must produce a
// Result — metrics, device stats, per-link counters, per-core
// breakdowns, the entire observability report — deeply equal to the
// reference run that ticks every cycle. Any wakeup-protocol bug (a
// component sleeping through a cycle where it had work) diverges here.
func TestIdleSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system equivalence runs")
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := Config{
				App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
				Cycles: 6_000, PriorityDemand: true, SampleEvery: 500,
			}
			on := runSkip(t, cfg, true)
			off := runSkip(t, cfg, false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("idle-skip on and off diverge:\n on: %+v\noff: %+v", on, off)
			}
		})
	}
}

// TestIdleSkipEquivalenceVariants covers the wake paths the design grid
// leaves out: multiple virtual channels, adaptive routing, a different
// application and generation, an explicitly low-utilization app where
// idle-skip actually skips, and every memory scheduler saturated, at low
// utilization and under a sparse replay — four requests 9,000 cycles
// apart, so the controller sleeps across whole regulation windows and
// anything it counts per tick (the regulator's window rolls did) shows
// the kernel's wake schedule in the report.
func TestIdleSkipEquivalenceVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system equivalence runs")
	}
	cfgs := map[string]Config{
		"vc2-adaptive": {
			App: appmodel.SingleDTV(), Gen: dram.DDR1, Design: GSS,
			Cycles: 6_000, VirtualChannels: 2, AdaptiveRouting: true,
		},
		"ddr3-sagm": {
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGMSTI,
			Cycles: 6_000, SampleEvery: 750,
		},
		"low-util": {
			App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM,
			Cycles: 20_000, PriorityDemand: true, SampleEvery: 1000,
		},
	}
	sparse := make([]trace.Record, 4)
	for i := range sparse {
		sparse[i] = trace.Record{
			Cycle: int64(i) * 9_000, Core: appmodel.BluRay().Cores[0].Name,
			Kind: "R", Class: "media", Bank: i, Row: i, Beats: 8,
		}
	}
	for _, sc := range memctrl.Schedulers() {
		base := Config{Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true, Scheduler: sc}
		sat, low, rep := base, base, base
		sat.App, sat.Cycles = appmodel.BluRay(), 6_000
		low.App, low.Cycles = appmodel.LowUtil(), 20_000
		rep.App, rep.Cycles, rep.Replay = appmodel.BluRay(), 40_000, sparse
		cfgs[sc.String()+"-saturated"] = sat
		cfgs[sc.String()+"-low-util"] = low
		cfgs[sc.String()+"-sparse-replay"] = rep
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			on := runSkip(t, cfg, true)
			off := runSkip(t, cfg, false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("idle-skip on and off diverge:\n on: %+v\noff: %+v", on, off)
			}
		})
	}
}
