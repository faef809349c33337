package sweep

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// twinGrid is a Table I slice without priority: [4], its twin GSS, and
// CONV, which no other point shares a simulation with.
func twinGrid() []system.Config {
	cfg := system.Config{App: appmodel.BluRay(), Gen: dram.DDR2, Cycles: 1000}
	var cfgs []system.Config
	for _, d := range []system.Design{system.SDRAMAware, system.GSS, system.Conv} {
		cfg.Design = d
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

// designRun is a fake RunFunc whose result names the design it ran.
func designRun(cfg system.Config) system.Result {
	res, err := system.ResultOf(&obs.Report{Design: cfg.Design.String(), Completed: int64(cfg.Design) + 1})
	if err != nil {
		panic(err)
	}
	return res
}

// gatedGrid orders a twin grid so that the GSS point is examined only
// after [4] has started simulating, on whichever worker [4] is not
// holding: [4], a CONV that waits for [4] to start, GSS, then the CONVs
// of more seeds (Seed 0 has no gate).
func gatedGrid(convs int) []system.Config {
	g := twinGrid()
	cfgs := []system.Config{g[0], g[2], g[1]}
	cfgs[1].Seed = 1
	for i := 0; i < convs; i++ {
		c := g[2]
		c.Seed = uint64(i + 2)
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestTwinAttachesWithoutWaiting: a GSS point whose [4] twin is still
// simulating attaches to that run, and its worker goes on to the next
// CONV instead of waiting. [4]'s run holds until that CONV has started,
// which a worker parked on the twin would never let happen.
func TestTwinAttachesWithoutWaiting(t *testing.T) {
	cfgs := append(gatedGrid(1), twinGrid()[1]) // and an exact duplicate of GSS
	fourStarted, convStarted := make(chan struct{}), make(chan struct{})
	var runs atomic.Int64
	results, st := Run(cfgs, Options{
		Workers: 2,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			runs.Add(1)
			switch {
			case cfg.Design == system.SDRAMAware:
				close(fourStarted)
				select {
				case <-convStarted:
				case <-time.After(10 * time.Second):
					return system.Result{}, errors.New("the CONV after GSS never started: a worker waited on the twin's run")
				}
			case cfg.Seed == 1:
				<-fourStarted
			default:
				close(convStarted)
			}
			return designRun(cfg), nil
		},
	})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != 3 || st.Runs != 4 || st.Twins != 1 || st.CacheHits != 1 {
		t.Fatalf("RunFunc ran %d times, stats %+v; want 4 runs (1 a twin's) and 1 cache hit", runs.Load(), st)
	}
	want, err := designRun(cfgs[0]).Restamp(system.GSS)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 4} {
		r := results[i]
		if r.Cached != (i == 4) || r.Stored || r.Res.Design != system.GSS || r.Res.Obs.Design != "GSS" || r.Res.Completed != want.Completed {
			t.Fatalf("point %d = %+v (report %+v), want [4]'s result restamped GSS (cached only for the duplicate)", i, r, r.Res.Obs)
		}
	}
	if results[0].Cached || results[0].Res.Obs.Design != "[4]" {
		t.Fatalf("the simulated twin = %+v (report %+v), want its own [4] result", results[0], results[0].Res.Obs)
	}
	if results[2].Fingerprint == results[0].Fingerprint {
		t.Fatal("the derived point lost its own fingerprint")
	}

	// DisableCache runs every point plainly, twins included.
	runs.Store(0)
	_, st = Run(twinGrid(), Options{Workers: 2, DisableCache: true, RunFunc: func(cfg system.Config) (system.Result, error) {
		runs.Add(1)
		return designRun(cfg), nil
	}})
	if runs.Load() != 3 || st.Runs != 3 || st.Twins != 0 || st.CacheHits != 0 {
		t.Fatalf("DisableCache: RunFunc ran %d times, stats %+v; want 3 plain runs", runs.Load(), st)
	}
}

// TestTwinStoreEntriesAreTheirOwn: a derived point is read from and
// written to the store under its own fingerprint, so the store ends up
// holding what simulating every point would have put there.
func TestTwinStoreEntriesAreTheirOwn(t *testing.T) {
	store := newFakeStore()
	cfgs := twinGrid()
	results, st := Run(cfgs, Options{Workers: 1, Store: store, RunFunc: func(cfg system.Config) (system.Result, error) {
		return designRun(cfg), nil
	}})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 3 || st.Twins != 1 || st.CacheHits != 0 || store.gets != 3 || store.puts != 3 {
		t.Fatalf("stats %+v with %d gets / %d puts, want 3 runs (1 a twin's), 3 gets, 3 puts", st, store.gets, store.puts)
	}
	for i, cfg := range cfgs {
		fp, _ := Fingerprint(cfg)
		if got := store.entries[fp]; got.Design != cfg.Design || got.Obs.Design != cfg.Design.String() {
			t.Fatalf("point %d stored as %v / %q, want %v", i, got.Design, got.Obs.Design, cfg.Design)
		}
	}
}

// TestCancelSettlesAttachedTwins: cancelling while the owner simulates
// settles the points attached to its run with the owner's error, and
// the executor leaves no goroutine behind.
func TestCancelSettlesAttachedTwins(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// [4] runs until cancelled; GSS attaches to it; the next CONV
	// cancels; the last never starts.
	cfgs := gatedGrid(2)
	fourStarted := make(chan struct{})
	ownerErr := errors.New("owner cancelled")
	results, st := Run(cfgs, Options{
		Workers: 2,
		Context: ctx,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			switch {
			case cfg.Design == system.SDRAMAware:
				close(fourStarted)
				<-ctx.Done()
				return system.Result{}, ownerErr
			case cfg.Seed == 1:
				<-fourStarted
			default:
				cancel()
			}
			return designRun(cfg), nil
		},
	})
	if !errors.Is(results[0].Err, ownerErr) || !errors.Is(results[2].Err, ownerErr) || results[2].Cached {
		t.Fatalf("owner %v, attached twin %+v: want both settled with the owner's error", results[0].Err, results[2])
	}
	if results[1].Err != nil || results[3].Err != nil || !errors.Is(results[4].Err, context.Canceled) {
		t.Fatalf("CONVs = %v, %v; unstarted point = %v", results[1].Err, results[3].Err, results[4].Err)
	}
	if st.Runs != 4 || st.Twins != 1 || st.CacheHits != 0 {
		t.Fatalf("stats %+v, want 4 runs (1 a twin's) and no cache hit", st)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// paperGrid builds the Tables I-III grid the way the root package's
// matrix does: per table, application × generation × design, with the
// table's fixed knobs set on every point.
func paperGrid() []system.Config {
	gens := []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3}
	tables := []struct {
		gens    []dram.Generation
		designs []system.Design
		set     func(*system.Config)
	}{
		{gens, []system.Design{system.Conv, system.SDRAMAware, system.GSS, system.GSSSAGM}, func(*system.Config) {}},
		{gens, []system.Design{system.ConvPFS, system.SDRAMAwarePFS, system.GSS, system.GSSSAGM},
			func(c *system.Config) { c.PriorityDemand = true }},
		{[]dram.Generation{dram.DDR3}, []system.Design{system.GSSSAGM, system.GSSSAGMSTI},
			func(c *system.Config) { c.PriorityDemand, c.TagEveryRequest = true, true }},
	}
	var cfgs []system.Config
	for _, tb := range tables {
		for _, app := range appmodel.Apps() {
			for _, gen := range tb.gens {
				for _, d := range tb.designs {
					cfg := system.Config{App: app, Gen: gen, Design: d, Cycles: 5000}
					tb.set(&cfg)
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// TestPaperGridPlan pins the plan of Tables I-III: 78 rows from 69
// simulations, Table I's nine GSS points restamped from their [4] twins,
// each point read from and written to the store once. A second Run over
// the filled store simulates nothing.
func TestPaperGridPlan(t *testing.T) {
	cfgs := paperGrid()
	if len(cfgs) != 78 {
		t.Fatalf("paper grid has %d points, want 78", len(cfgs))
	}
	for _, workers := range []int{1, 2} {
		store := newFakeStore()
		var runs atomic.Int64
		count := func(cfg system.Config) (system.Result, error) {
			runs.Add(1)
			return designRun(cfg), nil
		}
		results, st := Run(cfgs, Options{Workers: workers, Store: store, RunFunc: count})
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		if want := (Stats{Runs: 78, Twins: 9, Workers: workers}); runs.Load() != 69 || st != want || store.gets != 78 || store.puts != 78 {
			t.Fatalf("workers=%d: %d RunFunc calls, stats %+v, %d gets / %d puts; want 69 calls, %+v, 78 gets / 78 puts",
				workers, runs.Load(), st, store.gets, store.puts, want)
		}
		runs.Store(0)
		results, st = Run(cfgs, Options{Workers: workers, Store: store, RunFunc: count})
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		if want := (Stats{StoreHits: 78, Workers: workers}); runs.Load() != 0 || st != want {
			t.Fatalf("workers=%d, warm: %d RunFunc calls, stats %+v; want none and %+v", workers, runs.Load(), st, want)
		}
	}
}

// TestCancelAfterRunAnswersItsJob: a job whose run finished before the
// cancel still answers its later points from that run — the twin
// restamped, the duplicate Cached — while every point of a job that had
// not started settles with the context's error.
func TestCancelAfterRunAnswersItsJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	g := twinGrid()
	// Jobs: [4], GSS, GSS again; then CONV twice.
	cfgs := []system.Config{g[0], g[2], g[1], g[1], g[2]}
	var runs atomic.Int64
	results, st := Run(cfgs, Options{
		Workers: 1,
		Context: ctx,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			runs.Add(1)
			defer cancel()
			return designRun(cfg), nil
		},
	})
	if results[0].Err != nil || results[0].Cached || results[0].Res.Design != system.SDRAMAware {
		t.Fatalf("the simulated point = %+v, want its own [4] result", results[0])
	}
	for _, i := range []int{2, 3} {
		r := results[i]
		if r.Err != nil || r.Cached != (i == 3) || r.Res.Design != system.GSS || r.Res.Obs.Design != "GSS" {
			t.Fatalf("point %d = %+v, want [4]'s run restamped GSS (cached only for the duplicate)", i, r)
		}
	}
	for _, i := range []int{1, 4} {
		if !errors.Is(results[i].Err, context.Canceled) {
			t.Fatalf("point %d of the unstarted job: err %v, want context.Canceled", i, results[i].Err)
		}
	}
	if want := (Stats{Runs: 2, Twins: 1, CacheHits: 1, Workers: 1}); runs.Load() != 1 || st != want {
		t.Fatalf("%d RunFunc calls, stats %+v; want 1 call and %+v", runs.Load(), st, want)
	}
}

// TestSerialRunsJobsInOrder: with one worker, RunFunc runs in the order
// of each job's first point. [4] is stored, so its job's run is GSS's
// own, made before the CONV that precedes GSS in the grid.
func TestSerialRunsJobsInOrder(t *testing.T) {
	store := newFakeStore()
	g := twinGrid()
	fp, _ := Fingerprint(g[0])
	store.entries[fp] = designRun(g[0])
	var order []system.Design
	results, st := Run([]system.Config{g[0], g[2], g[1]}, Options{Workers: 1, Store: store, RunFunc: func(cfg system.Config) (system.Result, error) {
		order = append(order, cfg.Design) // safe: serial mode
		return designRun(cfg), nil
	}})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if want := []system.Design{system.GSS, system.Conv}; !reflect.DeepEqual(order, want) {
		t.Fatalf("RunFunc order %v, want %v", order, want)
	}
	if want := (Stats{Runs: 2, StoreHits: 1, Workers: 1}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}
