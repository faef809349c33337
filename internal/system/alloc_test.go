package system

import (
	"math/rand"
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

// TestParentTableAgainstMap drives the ring parentTable and a map model
// through seeded random put/get/del sequences shaped like the runner's:
// IDs only grow and leave gaps (split and response IDs are never
// parents). Phases of filling and draining force wrap-around, growth
// while the window is wrapped, and reuse after the table empties;
// get/del also probe IDs below, inside (gaps) and above the window.
func TestParentTableAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tbl parentTable
		model := map[int64]*logical{}
		var liveIDs []int64 // ascending
		next := int64(rng.Intn(1000))
		check := func(step int) {
			t.Helper()
			if tbl.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len %d, model has %d", seed, step, tbl.Len(), len(model))
			}
			i := 0
			tbl.each(func(id int64, l *logical) {
				if i >= len(liveIDs) || id != liveIDs[i] || l != model[id] {
					t.Fatalf("seed %d step %d: each visit %d = ID %d, want the live IDs %v in order", seed, step, i, id, liveIDs)
				}
				i++
			})
			if i != len(liveIDs) {
				t.Fatalf("seed %d step %d: each visited %d records, want %d", seed, step, i, len(liveIDs))
			}
		}
		wrapped, grewWrapped, emptied := false, false, 0
		for step := 0; step < 6000; step++ {
			// Alternate long fill and drain phases so the window both
			// outgrows the ring and empties completely.
			fill := (step/500)%2 == 0
			switch op := rng.Intn(10); {
			case op < 6 && fill || op < 1:
				next += 1 + int64(rng.Intn(4)) // gaps: IDs that are never parents
				l := &logical{core: step}
				size, wasWrapped := len(tbl.slots), tbl.head+tbl.n > len(tbl.slots)
				tbl.put(next, l)
				model[next] = l
				liveIDs = append(liveIDs, next)
				wrapped = wrapped || wasWrapped
				grewWrapped = grewWrapped || (wasWrapped && len(tbl.slots) > size)
			case op < 8 && len(liveIDs) > 0:
				// Mostly the oldest (in-order completion), sometimes any.
				k := 0
				if rng.Intn(3) == 0 {
					k = rng.Intn(len(liveIDs))
				}
				id := liveIDs[k]
				tbl.del(id)
				delete(model, id)
				liveIDs = append(liveIDs[:k], liveIDs[k+1:]...)
				if len(liveIDs) == 0 {
					emptied++
				}
			default:
				// Probe anywhere from below the window to above it; a dead
				// or never-used ID must read nil and delete as a no-op.
				id := next - int64(rng.Intn(400)) + 20
				if got := tbl.get(id); got != model[id] {
					t.Fatalf("seed %d step %d: get(%d) = %p, model %p", seed, step, id, got, model[id])
				}
				if model[id] == nil {
					tbl.del(id)
				}
			}
			check(step)
		}
		for _, id := range liveIDs {
			if tbl.get(id) != model[id] {
				t.Fatalf("seed %d: live ID %d lost", seed, id)
			}
		}
		if !wrapped || !grewWrapped || emptied == 0 {
			t.Errorf("seed %d: sequence did not cover wrap-around (%v), growth while wrapped (%v) and empty-then-reuse (%d)", seed, wrapped, grewWrapped, emptied)
		}
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
