package aanoc

// The in-package benchmarks DESIGN.md "Per-experiment index" cites (Fig.
// 8, Tables IV and V) and those of DESIGN.md "Ablations". Each runs complete
// simulations and reports the paper's metrics through b.ReportMetric
// (go test -bench=. -benchmem). Tables I-III and raw simulator throughput
// are bench/'s workloads: go run ./bench -workload tables-cold|sat-gss.

import (
	"fmt"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/system"
)

// benchCycles keeps benchmark iterations affordable while staying long
// enough to reach steady state.
const benchCycles = 60_000

// reportRun executes cfg once per benchmark iteration and reports the
// paper's metrics.
func reportRun(b *testing.B, cfg system.Config) {
	b.Helper()
	cfg.Cycles = benchCycles
	var last system.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1)
		res, err := system.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Utilization, "util")
	b.ReportMetric(last.LatAll, "lat-all")
	b.ReportMetric(last.LatDemand, "lat-demand")
	if last.LatPriority > 0 {
		b.ReportMetric(last.LatPriority, "lat-priority")
	}
	b.ReportMetric(100*last.WasteFrac, "waste-%")
}

// BenchmarkFig8 regenerates the Fig. 8 sweep: memory performance versus
// the number of GSS routers for the paper's three app/clock pairings.
func BenchmarkFig8(b *testing.B) {
	curves := []struct {
		app   string
		gen   dram.Generation
		clock int
	}{
		{"sdtv", dram.DDR1, 200},
		{"bluray", dram.DDR2, 333},
		{"ddtv", dram.DDR3, 667},
	}
	for _, c := range curves {
		app, err := appmodel.ByName(c.app)
		if err != nil {
			b.Fatal(err)
		}
		for k := 0; k <= app.Width*app.Height; k += 3 {
			n := k
			if k == 0 {
				n = -1
			}
			c := c
			app := app
			b.Run(fmt.Sprintf("%s/gss-routers-%d", c.app, k), func(b *testing.B) {
				reportRun(b, system.Config{
					App: app, Gen: c.gen, ClockMHz: c.clock,
					Design: system.GSSSAGM, GSSRouters: n, PriorityDemand: true,
				})
			})
		}
	}
}

// BenchmarkTableIV regenerates the gate-count model (Table IV). The model
// is analytic, so the benchmark measures its evaluation and reports the
// headline gate counts.
func BenchmarkTableIV(b *testing.B) {
	var rows []AreaRow
	for i := 0; i < b.N; i++ {
		rows = TableIV()
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.NoC3x3), "gates-"+r.Design)
	}
}

// BenchmarkTableV regenerates the power model (Table V).
func BenchmarkTableV(b *testing.B) {
	var rows []PowerRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = TableV(TableOptions{Cycles: benchCycles, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PowerMW, fmt.Sprintf("mW-%s-%s", r.App, r.Design))
	}
}

// BenchmarkAblationPCT sweeps the priority control token from the
// priority-equal to the priority-first degenerate settings (the design
// space behind Fig. 1).
func BenchmarkAblationPCT(b *testing.B) {
	for pct := 1; pct <= 5; pct++ {
		pct := pct
		b.Run(fmt.Sprintf("pct-%d", pct), func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSS, PCT: pct, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationGranularity sweeps the SAGM split granularity.
func BenchmarkAblationGranularity(b *testing.B) {
	for _, g := range []int{2, 4, 8, 16} {
		g := g
		b.Run(fmt.Sprintf("beats-%d", g), func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, SplitGranularity: g, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationPagePolicy compares the paper's partially-open-page
// policy against always-open and closed-page on the SAGM design.
func BenchmarkAblationPagePolicy(b *testing.B) {
	for _, p := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.PartialOpenPage, memctrl.ClosedPage} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			policy := p
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, PagePolicy: &policy, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationAutoPrecharge isolates the Fig. 5 effect: the SAGM
// design with the paper's tag-driven auto-precharge versus the same
// design forced to close pages with explicit PRE commands only
// (open-page policy, BL4 mode) — the command congestion AP removes.
func BenchmarkAblationAutoPrecharge(b *testing.B) {
	open := memctrl.OpenPage
	cases := []struct {
		name   string
		policy *memctrl.PagePolicy
	}{
		{"with-AP", nil}, // design default: partially-open page
		{"explicit-PRE", &open},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: system.GSSSAGM, PagePolicy: c.policy, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationTagPolicy compares the paper-literal tag-every-request
// partially-open-page policy with the row-aware tagging this
// reproduction defaults to.
func BenchmarkAblationTagPolicy(b *testing.B) {
	for _, every := range []bool{false, true} {
		name := "row-aware-tags"
		if every {
			name = "tag-every-request"
		}
		every := every
		b.Run(name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR3,
				Design: system.GSSSAGMSTI, TagEveryRequest: every, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationVirtualChannels contrasts the two remedies for long
// best-effort packets blocking priority packets: the paper's SAGM
// splitting versus a dedicated priority virtual channel (the buffer
// organisation the paper names as the alternative), and both together.
func BenchmarkAblationVirtualChannels(b *testing.B) {
	cases := []struct {
		name string
		d    system.Design
		vcs  int
	}{
		{"gss-wormhole", system.GSS, 1},
		{"gss-priority-vc", system.GSS, 2},
		{"gss-sagm", system.GSSSAGM, 1},
		{"gss-sagm-priority-vc", system.GSSSAGM, 2},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.BluRay(), Gen: dram.DDR2,
				Design: c.d, VirtualChannels: c.vcs, PriorityDemand: true,
			})
		})
	}
}

// BenchmarkAblationRouting compares the paper's deterministic XY routing
// with the west-first adaptive turn model on the congested dual-DTV
// system. Expected outcome: near-identical metrics — with the memory
// subsystem in the mesh corner, the congested request path has no
// minimal-path diversity for adaptivity to exploit (responses spread
// across east/south paths, visible in per-port busy counters), which is
// consistent with the paper's choice of deterministic XY routing.
func BenchmarkAblationRouting(b *testing.B) {
	for _, adaptive := range []bool{false, true} {
		name := "xy"
		if adaptive {
			name = "west-first-adaptive"
		}
		adaptive := adaptive
		b.Run(name, func(b *testing.B) {
			reportRun(b, system.Config{
				App: appmodel.DualDTV(), Gen: dram.DDR3,
				Design: system.GSSSAGM, AdaptiveRouting: adaptive, PriorityDemand: true,
			})
		})
	}
}
