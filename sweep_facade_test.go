package aanoc

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// sweepPoint is a small, fast configuration for facade tests.
func sweepPoint(seed uint64) Config {
	return Config{Design: GSSSAGM, Cycles: 2000, Seed: seed}
}

func TestSweepRejectsBadGrids(t *testing.T) {
	if _, _, err := Sweep(SweepGrid{}, SweepOptions{}); !errors.Is(err, ErrBadGrid) {
		t.Errorf("empty grid: %v, want ErrBadGrid", err)
	}
	bad := SweepGrid{Points: []Config{sweepPoint(1), {Model: "nope"}}}
	_, _, err := Sweep(bad, SweepOptions{})
	if !errors.Is(err, ErrBadGrid) || !errors.Is(err, ErrUnknownApp) {
		t.Errorf("invalid point: %v, want ErrBadGrid wrapping ErrUnknownApp", err)
	}
}

func TestSweepMatchesRun(t *testing.T) {
	cfg := sweepPoint(3)
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := Sweep(SweepGrid{Points: []Config{cfg, cfg}}, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SweepFirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.CacheHits != 1 {
		t.Fatalf("stats %+v, want the duplicate deduplicated", st)
	}
	if !results[1].Cached || results[0].Fingerprint == "" ||
		results[0].Fingerprint != results[1].Fingerprint {
		t.Fatalf("cache provenance wrong: %+v / %+v", results[0], results[1])
	}
	if results[0].Row.Utilization != want.Utilization ||
		results[0].Row.Obs == nil {
		t.Errorf("sweep row diverges from Run: %+v", results[0].Row)
	}
}

// TestSweepStoreSecondRunSimulatesNothing is the PR's acceptance
// criterion at the facade level: an identical sweep against the store
// the first populated performs zero simulations and returns
// byte-identical rows.
func TestSweepStoreSecondRunSimulatesNothing(t *testing.T) {
	st1, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid{Points: []Config{sweepPoint(1), sweepPoint(2), sweepPoint(1)}}
	first, stats, err := Sweep(grid, SweepOptions{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SweepFirstErr(first); err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 2 || stats.StoreHits != 0 {
		t.Fatalf("first pass stats %+v, want 2 simulations", stats)
	}

	second, stats, err := Sweep(grid, SweepOptions{Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SweepFirstErr(second); err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 || stats.StoreHits != 2 || stats.CacheHits != 1 {
		t.Fatalf("second pass stats %+v, want zero simulations", stats)
	}
	for i := range first {
		if !second[i].Stored {
			t.Errorf("second-pass point %d not marked stored", i)
		}
		a, _ := json.Marshal(first[i].Row)
		b, _ := json.Marshal(second[i].Row)
		if string(a) != string(b) {
			t.Errorf("point %d rows differ between simulated and stored:\n%s\n%s", i, a, b)
		}
	}
	if s := st1.Stats(); s.Puts != 2 || s.Hits != 2 {
		t.Errorf("store accounting %+v, want 2 puts / 2 hits", s)
	}
}

func TestSweepDisableCacheBypassesStore(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grid := SweepGrid{Points: []Config{sweepPoint(1)}}
	if _, _, err := Sweep(grid, SweepOptions{Store: st}); err != nil {
		t.Fatal(err)
	}
	results, stats, err := Sweep(grid, SweepOptions{Store: st, DisableCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 1 || stats.StoreHits != 0 || results[0].Stored {
		t.Errorf("DisableCache sweep still used the store: %+v / %+v", stats, results[0])
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	grid := SweepGrid{Points: []Config{sweepPoint(1), sweepPoint(2)}}
	results, stats, err := Sweep(grid, SweepOptions{Context: ctx, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Runs != 0 {
		t.Fatalf("cancelled sweep simulated: %+v", stats)
	}
	if err := SweepFirstErr(results); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled sweep error: %v", err)
	}
}

func TestTableOptionsStore(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := TableOptions{Cycles: 2000, Store: st}
	first, err := TableIII(o)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Puts == 0 {
		t.Fatal("table run persisted nothing")
	}
	second, err := TableIII(o)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits == 0 {
		t.Error("second table run hit the store zero times")
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if string(a) != string(b) {
		t.Error("store-served table diverges from simulated table")
	}
}

// TestWarmSweepAllocsPerPoint is the served path's count gate: with the
// Table I grid already in the store, a sweep resolves, fingerprints and
// reads back each point, and allocates only what it returns — no model
// built to check a name, no model built from its constructors, no
// per-slice reflect header in the decode.
func TestWarmSweepAllocsPerPoint(t *testing.T) {
	st, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var grid SweepGrid
	for _, app := range Apps() {
		for gen := 1; gen <= 3; gen++ {
			for _, d := range []Design{Conv, SDRAMAware, GSS, GSSSAGM} {
				grid.Points = append(grid.Points, Config{Model: App(app), Generation: gen, Design: d, Cycles: 2000})
			}
		}
	}
	if _, stats, err := Sweep(grid, SweepOptions{Store: st, Workers: 1}); err != nil || stats.Runs != len(grid.Points) {
		t.Fatalf("populating the store: %+v, %v", stats, err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, stats, err := Sweep(grid, SweepOptions{Store: st, Workers: 1}); err != nil || stats.StoreHits != len(grid.Points) {
			t.Fatalf("warm sweep: %+v, %v", stats, err)
		}
	})
	if per := allocs / float64(len(grid.Points)); per > 30 {
		t.Errorf("a warm sweep allocates %.1f times per point, want at most 30", per)
	} else {
		t.Logf("%d points, %.1f allocations per point", len(grid.Points), per)
	}
}
