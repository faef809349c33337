package system

import (
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
)

// TestConservationAcrossDesigns: every generated logical request is
// either completed or still in flight when the clock stops — nothing is
// lost or duplicated, under every design.
func TestConservationAcrossDesigns(t *testing.T) {
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r, err := New(Config{
				App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
				Cycles: 40_000, Seed: 9, PriorityDemand: true, Warmup: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 40_000; i++ {
				r.kern.Step()
			}
			inflight := int64(r.parents.live)
			if tot := settledTotals(r); tot.generated != tot.completed+inflight {
				t.Fatalf("conservation broken: generated %d, completed %d, in flight %d",
					tot.generated, tot.completed, inflight)
			}
			if inflight > 400 {
				t.Errorf("suspiciously many requests in flight: %d", inflight)
			}
		})
	}
}

// TestDrainToQuiescence: when the generators stop, the system finishes
// every outstanding request — no packet is stuck in a buffer, no request
// wedged in the memory pipeline.
func TestDrainToQuiescence(t *testing.T) {
	for _, d := range []Design{Conv, GSS, GSSSAGM} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			r, err := New(Config{
				App: appmodel.SingleDTV(), Gen: dram.DDR3, Design: d,
				Cycles: 20_000, Seed: 13, PriorityDemand: true, Warmup: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 20_000; i++ {
				r.kern.Step()
			}
			// Silence the sources and drain.
			for _, c := range r.cores {
				c.gens = nil
			}
			for i := 0; i < 60_000 && r.parents.live > 0; i++ {
				r.kern.Step()
			}
			if n := r.parents.live; n != 0 {
				t.Fatalf("%d requests wedged after drain", n)
			}
			if !r.reqMesh.Quiescent() {
				t.Error("request mesh not quiescent after drain")
			}
			if !r.respMesh.Quiescent() {
				t.Error("response mesh not quiescent after drain")
			}
			for ch, c := range r.chans {
				if c.done != c.sent {
					t.Errorf("memory channel %d completed %d of its %d splits after drain", ch, c.done, c.sent)
				}
			}
		})
	}
}

// TestSeedSensitivity: different seeds must give different but
// commensurate results (no hidden global state, no degenerate runs).
func TestSeedSensitivity(t *testing.T) {
	var utils []float64
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := Run(Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM,
			Cycles: 60_000, Seed: seed, PriorityDemand: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		utils = append(utils, res.Utilization)
	}
	if utils[0] == utils[1] && utils[1] == utils[2] {
		t.Error("three different seeds produced identical utilization — RNG not wired through")
	}
	for _, u := range utils {
		if u < utils[0]*0.9 || u > utils[0]*1.1 {
			t.Errorf("seed variance too large: %v", utils)
		}
	}
}

// TestWarmupExcludesEarlySamples: latency statistics must only cover
// requests generated after the warmup boundary.
func TestWarmupExcludesEarlySamples(t *testing.T) {
	// Completions count over the whole run; the latency samples only
	// after the warmup boundary, so a late warmup leaves far fewer.
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS,
		Cycles: 40_000, Seed: 7, Warmup: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40_000; i++ {
		r.kern.Step()
	}
	if r.met.All.Count == 0 {
		t.Fatal("no samples after warmup")
	}
	if completed := settledTotals(r).completed; r.met.All.Count >= completed {
		t.Errorf("warmup did not exclude early samples: %d samples of %d completions",
			r.met.All.Count, completed)
	}
}

// TestUtilizationNeverExceedsOne across a spread of configurations.
func TestUtilizationNeverExceedsOne(t *testing.T) {
	for _, gen := range []dram.Generation{dram.DDR1, dram.DDR3} {
		for _, d := range []Design{Conv, GSSSAGMSTI} {
			res, err := Run(Config{
				App: appmodel.DualDTV(), Gen: gen, Design: d,
				Cycles: 30_000, Seed: 2, PriorityDemand: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Utilization > 1.0 || res.Utilization < 0 {
				t.Errorf("%s DDR%d: utilization %v out of range", d, gen, res.Utilization)
			}
			if res.WasteFrac < 0 || res.WasteFrac > 1 {
				t.Errorf("%s DDR%d: waste %v out of range", d, gen, res.WasteFrac)
			}
		}
	}
}

// TestPriorityFlagRouting: in a priority run every demand completion is
// recorded in both the demand and the priority columns, and they agree.
func TestPriorityFlagRouting(t *testing.T) {
	r, err := New(Config{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSS,
		Cycles: 40_000, Seed: 4, PriorityDemand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40_000; i++ {
		r.kern.Step()
	}
	if r.met.Demand.Count == 0 {
		t.Fatal("no demand completions")
	}
	if r.met.Demand.Count != r.met.Priority.Count || r.met.Demand.Sum != r.met.Priority.Sum {
		t.Errorf("demand (%d/%d) and priority (%d/%d) columns should coincide",
			r.met.Demand.Count, r.met.Demand.Sum, r.met.Priority.Count, r.met.Priority.Sum)
	}
	if r.met.Best.Count+r.met.Priority.Count != r.met.All.Count {
		t.Error("priority + best-effort should partition all samples")
	}
}
