package aanoc

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
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
	if results[0].Res.Utilization != want.Utilization ||
		results[0].Res.Obs == nil {
		t.Errorf("sweep row diverges from Run: %+v", results[0].Res)
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
		a, _ := json.Marshal(first[i].Res)
		b, _ := json.Marshal(second[i].Res)
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

	// The drivers and Sweep share one row path and one key: Table I's
	// points, swept as facade Configs against the store Table I filled,
	// are all store hits with Table I's rows.
	fresh, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table, err := TableI(TableOptions{Cycles: 2000, Store: fresh})
	if err != nil {
		t.Fatal(err)
	}
	var grid SweepGrid
	for _, r := range table {
		grid.Points = append(grid.Points, Config{Model: App(r.App), Generation: int(r.Gen), Design: r.Design, Cycles: 2000})
	}
	results, stats, err := Sweep(grid, SweepOptions{Store: fresh})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 36 || stats.StoreHits != len(results) || stats.Runs != 0 {
		t.Fatalf("Table I swept against its store: %d points, %+v, want 36 store hits", len(results), stats)
	}
	for i, r := range results {
		a, _ := json.Marshal(table[i])
		b, _ := json.Marshal(r.Res)
		if !r.Stored || string(a) != string(b) {
			t.Errorf("point %d (stored %v) diverges from Table I:\n%s\n%s", i, r.Stored, a, b)
		}
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
	for _, app := range []App{AppBluRay, AppSDTV, AppDDTV} {
		for gen := 1; gen <= 3; gen++ {
			for _, d := range []Design{Conv, SDRAMAware, GSS, GSSSAGM} {
				grid.Points = append(grid.Points, Config{Model: app, Generation: gen, Design: d, Cycles: 2000})
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
	if per := allocs / float64(len(grid.Points)); per > 16 {
		t.Errorf("a warm sweep allocates %.1f times per point, want at most 16", per)
	} else {
		t.Logf("%d points, %.1f allocations per point", len(grid.Points), per)
	}
}

// TestSweepSharedModelsParallel: a grid's points share one clone of each
// model, so concurrent runs read the same slices. Two workers return the
// rows one does, byte for byte, and leave every model as appmodel built
// it (the race job runs this).
func TestSweepSharedModelsParallel(t *testing.T) {
	var grid SweepGrid
	for _, app := range []App{AppBluRay, AppSDTV} {
		for _, d := range []Design{Conv, GSSSAGM} {
			for seed := uint64(1); seed <= 2; seed++ {
				grid.Points = append(grid.Points, Config{Model: app, Design: d, Cycles: driverCycles(), Seed: seed})
			}
		}
	}
	serial, _, err := Sweep(grid, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var models modelClones
	parallel, stats, err := sweepWith(grid, SweepOptions{Workers: 2}, models.byName)
	if err != nil {
		t.Fatal(err)
	}
	if err := SweepFirstErr(parallel); err != nil {
		t.Fatal(err)
	}
	if stats.Runs != len(grid.Points) {
		t.Fatalf("stats %+v, want every point simulated", stats)
	}
	for i := range serial {
		a, _ := json.Marshal(serial[i].Res)
		b, _ := json.Marshal(parallel[i].Res)
		if string(a) != string(b) {
			t.Errorf("point %d rows differ between one worker and two:\n%s\n%s", i, a, b)
		}
	}
	if len(models) != 2 {
		t.Fatalf("the grid looked up %d models, want its 2", len(models))
	}
	for _, app := range models {
		want, err := appmodel.ByName(app.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(app, want) {
			t.Errorf("model %s changed under the sweep", app.Name)
		}
	}
}
