package system

import (
	"runtime"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
)

// TestRunToSteadyStateAllocs is the system-level pin behind DESIGN.md's
// "steady state allocates nothing per request": once a run is warm, a
// further window of RunTo may allocate at most one object per thousand
// generated requests — a free-list or queue reaching a new high-water
// mark, never anything per request. Allocation counts are deterministic
// per seed, so the bound does not flake. Covered: every design, every
// zoo scheduler, the multi-channel DDR4 subarray path, idle-skip over a
// near-idle run, and trace replay (the other traffic.Source).
func TestRunToSteadyStateAllocs(t *testing.T) {
	// The window is as long as the warm-up; queues and free-lists take a
	// while to find their high-water marks, the near-idle run longest.
	const saturated, nearIdle = 150_000, 1_000_000
	type leg struct {
		name string
		cfg  Config
		warm int64
	}
	var legs []leg
	for _, d := range Designs() {
		legs = append(legs, leg{"ddr3/" + d.String(),
			Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d, PriorityDemand: true}, saturated})
	}
	for _, s := range []memctrl.Scheduler{memctrl.SchedDPQ, memctrl.SchedRegulated, memctrl.SchedStaged} {
		legs = append(legs, leg{"scheduler/" + s.String(),
			Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true, Scheduler: s}, saturated})
	}
	legs = append(legs,
		leg{"ddtv4-ddr4-4ch-salp", Config{
			App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true,
			Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4,
		}, saturated},
		leg{"lowutil-idle-skip", Config{
			App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true,
		}, nearIdle},
		leg{"trace-replay", Config{
			App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true,
			Replay: captureTraceCycles(t, SDRAMAware, 2*saturated),
		}, saturated},
	)
	for _, l := range legs {
		l := l
		t.Run(l.name, func(t *testing.T) {
			l.cfg.Seed = 5
			l.cfg.Cycles = 2 * l.warm
			r, err := New(l.cfg)
			if err != nil {
				t.Fatal(err)
			}
			r.RunTo(l.warm)
			generated := r.Metrics().Generated
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.RunTo(l.cfg.Cycles)
			runtime.ReadMemStats(&after)
			generated = r.Metrics().Generated - generated
			allocs := int64(after.Mallocs - before.Mallocs)
			if generated < 1000 {
				t.Fatalf("window generated only %d requests: too few to judge", generated)
			}
			if allocs > generated/1000 {
				t.Errorf("warm RunTo made %d allocations over %d generated requests, want at most 1 per 1000", allocs, generated)
			}
			t.Logf("%d allocations over %d generated requests", allocs, generated)
		})
	}
}

// TestNegativeSplitGranularityRejected: New sizes the split list from the
// granularity, so a nonsensical one is a construction error, not a panic
// at the first split.
func TestNegativeSplitGranularityRejected(t *testing.T) {
	_, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, SplitGranularity: -4})
	if err == nil {
		t.Fatal("negative split granularity accepted")
	}
}
