package system

import (
	"bytes"
	"runtime"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
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
			generated := settledTotals(r).generated
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.RunTo(l.cfg.Cycles)
			runtime.ReadMemStats(&after)
			generated = settledTotals(r).generated - generated
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

// TestRunToAllocs pins whole runs, warm-up included: every queue,
// scratch slice and list inside RunTo is fixed at New or drawn from a
// pool, so a run from cycle 0 allocates only pool slabs (packets,
// packet progress, controller requests, GSS entries) and the slot
// table's slabs of logical-request records — a count set by the run's
// high-water marks, not by its length. The pins are the counts measured
// at seed 5 over 200,000 cycles plus 10%: 23-28 on the 4x4 mesh, 57 on
// the scale-ddr4 shape (28-34 and 69 while every split was cut at
// generation and waited in the injector as a packet; 38-43 and 79 while
// the records came from a pool and a parent table grew by doubling
// beside it). With the NI queues,
// allocator scratch, GSS entry tables and the engine's lists growing per
// object, the same runs made 194-323 allocations on the 4x4 mesh and
// 1,107 on the scale-ddr4 shape. The process-wide counter now and then
// sees up to five allocations made outside the run (a leg read 44 where
// its run makes 39), so each leg runs twice and the lower count is the
// run's: the run itself is the same both times. The pins are not checked
// under the race detector, whose runtime grows the pools' free lists in
// more steps.
func TestRunToAllocs(t *testing.T) {
	const cycles = 200_000
	pins := map[Design]int64{
		Conv: 27, ConvPFS: 26, SDRAMAware: 28, SDRAMAwarePFS: 28,
		GSS: 28, GSSSAGM: 31, GSSSAGMSTI: 31,
	}
	type leg struct {
		name string
		cfg  Config
		max  int64
	}
	var legs []leg
	for _, d := range Designs() {
		legs = append(legs, leg{"ddr3/" + d.String(),
			Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: d, PriorityDemand: true}, pins[d]})
	}
	legs = append(legs, leg{"scale-ddr4", scaleDDR4(), 63})
	for _, l := range legs {
		t.Run(l.name, func(t *testing.T) {
			l.cfg.Cycles, l.cfg.Seed = cycles, 5
			allocs := int64(-1)
			for range 2 {
				r, err := New(l.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := countMallocs(func() { r.RunTo(cycles) }); allocs < 0 || n < allocs {
					allocs = n
				}
			}
			if !raceEnabled && (l.max == 0 || allocs > l.max) {
				t.Errorf("RunTo over %d cycles made %d allocations, want at most %d", cycles, allocs, l.max)
			}
			t.Logf("%d allocations", allocs)
		})
	}
}

// TestFinishAllocs: the report is built from a fixed number of objects
// per mesh — one link list sized once, one label string its routers'
// "(x,y)" are sliced from — so a 6x6 mesh with 32 cores finishes in as
// many allocations as a 4x4 one with 8 (measured equal, 15; 300 against
// 138 when every link's label was its own fmt.Sprintf). What still grows
// is per channel: the scale-ddr4 shape's four channels add their bank
// counters, bank list, port label and stream section each and the
// channel breakdown (measured 16 more than one channel).
func TestFinishAllocs(t *testing.T) {
	finish := func(cfg Config) int64 {
		t.Helper()
		cfg.Cycles, cfg.Seed = 20_000, 5
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.RunTo(cfg.Cycles)
		return countMallocs(func() { r.Finish() })
	}
	small := finish(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, PriorityDemand: true})
	big := scaleDDR4()
	big.Channels, big.Scheme = 1, 0
	if b := finish(big); b > small+2 {
		t.Errorf("6x6/32-core Finish made %d allocations, 4x4/8-core %d: want at most 2 more", b, small)
	}
	if b := finish(scaleDDR4()); b > small+18 {
		t.Errorf("four-channel 6x6 Finish made %d allocations, one-channel 4x4 %d: want at most 18 more", b, small)
	}
}

// countMallocs returns the heap allocations fn made.
func countMallocs(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.Mallocs - before.Mallocs)
}

// TestNegativeSplitGranularityRejected: the splitter divides by the
// granularity, so a nonsensical one is a construction error, not a panic
// or a wrong split count at the first request.
func TestNegativeSplitGranularityRejected(t *testing.T) {
	_, err := New(Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, SplitGranularity: -4})
	if err == nil {
		t.Fatal("negative split granularity accepted")
	}
}

// scaleDDR4 is the scale-ddr4 benchmark's shape: 6x6 mesh, 32 cores,
// four DDR4 channels with 4 subarrays.
func scaleDDR4() Config {
	return Config{
		App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true,
		Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4,
	}
}

func newAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	cfg.Cycles, cfg.Seed = 1000, 1
	if _, err := New(cfg); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() { New(cfg) })
}

// TestNewAllocs is the count gate on construction: New allocates once
// per kind of object (a slab of routers' allocators, of cores, of
// generators, of network interfaces, of kernel handles), not once per
// object. The pins are the measured counts plus 10%, one configuration
// per Table I–III design family on the largest paper application and the
// scale-ddr4 shape; building a 6x6 mesh with 32 cores costs a fixed
// handful more than a 3x3 one with five.
func TestNewAllocs(t *testing.T) {
	ddtv := appmodel.DualDTV()
	for _, c := range []struct {
		name string
		cfg  Config
		max  float64
	}{
		{"table1/CONV", Config{App: ddtv, Gen: dram.DDR3, Design: Conv}, 85},
		{"table1/[4]", Config{App: ddtv, Gen: dram.DDR3, Design: SDRAMAware}, 92},
		{"table1/GSS", Config{App: ddtv, Gen: dram.DDR3, Design: GSS}, 92},
		{"table1/GSS+SAGM", Config{App: ddtv, Gen: dram.DDR3, Design: GSSSAGM}, 95},
		{"table2/CONV+PFS", Config{App: ddtv, Gen: dram.DDR3, Design: ConvPFS, PriorityDemand: true}, 85},
		{"table2/[4]+PFS", Config{App: ddtv, Gen: dram.DDR3, Design: SDRAMAwarePFS, PriorityDemand: true}, 92},
		{"table3/GSS+SAGM+STI", Config{App: ddtv, Gen: dram.DDR3, Design: GSSSAGMSTI, PriorityDemand: true, TagEveryRequest: true}, 95},
		{"scale-ddr4", scaleDDR4(), 131},
	} {
		if got := newAllocs(t, c.cfg); got > c.max {
			t.Errorf("%s: New made %v allocations, want at most %v", c.name, got, c.max)
		}
	}
	// The 78-point grid averaged 645.8 allocations a point when New built
	// one object at a time; it measures 76.1.
	var sum float64
	grid := paperGrid(1000)
	for _, cfg := range grid {
		sum += newAllocs(t, cfg)
	}
	if mean := sum / float64(len(grid)); mean > 91 {
		t.Errorf("New averaged %.1f allocations over the %d-point grid, want at most 91", mean, len(grid))
	}
	// O(kinds), not O(objects): the same design, device and one channel
	// on 36 routers and 32 cores against 9 routers and 5 cores (measured
	// 2 apart; 1,294 when every object was its own allocation).
	small := Config{App: appmodel.BluRay(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true, Subarrays: 4}
	big := scaleDDR4()
	big.Channels, big.Scheme = 1, 0
	if s, b := newAllocs(t, small), newAllocs(t, big); b > s+16 {
		t.Errorf("6x6/32-core New made %v allocations, 3x3/5-core %v: want at most 16 more", b, s)
	}
}

// TestSlabsDoNotAlias guards the slabs New carves: two runners of
// different shapes, built back to back and advanced in interleaved
// epochs, must each report exactly what the same configuration reports
// run alone. A carved piece that overlapped a neighbour, or one runner's
// slab shared with another, would show here as a diverging report.
func TestSlabsDoNotAlias(t *testing.T) {
	const cycles, epoch = 20_000, 1_000
	cfgs := []Config{
		{App: appmodel.BluRay(), Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true},
		scaleDDR4(),
	}
	encode := func(r *Runner) []byte {
		var buf bytes.Buffer
		if err := obs.EncodeJSON(&buf, r.Finish().Obs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var runners []*Runner
	for i := range cfgs {
		cfgs[i].Cycles, cfgs[i].Seed = cycles, 3
		r, err := New(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		runners = append(runners, r)
	}
	for at := int64(epoch); at <= cycles; at += epoch {
		for _, r := range runners {
			r.RunTo(at)
		}
	}
	for i, cfg := range cfgs {
		alone, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alone.RunTo(cycles)
		if !bytes.Equal(encode(runners[i]), encode(alone)) {
			t.Errorf("%s: interleaved run's report differs from the run alone", cfg.App.Name)
		}
	}
}

// TestCarvedSlicesAreExact: every per-object slice New carves out of a
// shared backing slice ends at its own length, so an append to it
// reallocates instead of writing into the next object's piece.
func TestCarvedSlicesAreExact(t *testing.T) {
	r, err := New(Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, PriorityDemand: true, Cycles: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range r.cores {
		if len(c.gens) == 0 || cap(c.gens) != len(c.gens) {
			t.Errorf("core %s: %d sources with capacity %d", c.spec.Name, len(c.gens), cap(c.gens))
		}
	}
}
