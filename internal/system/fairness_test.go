package system

import (
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
)

func TestPerCoreStatsCoverEveryCore(t *testing.T) {
	res, err := Run(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS,
		Cycles: 60_000, Seed: 5, PriorityDemand: true, Warmup: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Obs.NIs) != len(appmodel.BluRay().Cores) {
		t.Fatalf("per-core rows = %d, want %d", len(res.Obs.NIs), len(appmodel.BluRay().Cores))
	}
	var total int64
	for _, c := range res.Obs.NIs {
		if c.Completed == 0 {
			t.Errorf("core %s served nothing", c.Core)
		}
		if c.Completed > 0 && c.LatencySum <= 0 {
			t.Errorf("core %s has completions but no latency", c.Core)
		}
		total += c.Completed
	}
	if total != res.Completed {
		t.Fatalf("per-core completions %d != total %d", total, res.Completed)
	}
}

func TestFairnessIndexBounds(t *testing.T) {
	for _, d := range []Design{Conv, GSS, GSSSAGM} {
		res, err := Run(Config{
			App: appmodel.SingleDTV(), Gen: dram.DDR2, Design: d,
			Cycles: 50_000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := float64(len(res.Obs.NIs))
		if res.Fairness < 1/n || res.Fairness > 1.0001 {
			t.Errorf("%s: Jain index %v outside [1/n, 1]", d, res.Fairness)
		}
	}
}

func TestJainIndexFormula(t *testing.T) {
	equal := []obs.NI{{Beats: 10}, {Beats: 10}, {Beats: 10}}
	if j := jain(equal); j < 0.999 || j > 1.001 {
		t.Errorf("equal service Jain = %v, want 1", j)
	}
	monopoly := []obs.NI{{Beats: 30}, {Beats: 0}, {Beats: 0}}
	if j := jain(monopoly); j < 0.332 || j > 0.334 {
		t.Errorf("monopoly Jain = %v, want 1/3", j)
	}
	if jain(nil) != 0 {
		t.Error("empty Jain should be 0")
	}
}
