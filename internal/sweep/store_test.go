package sweep

import (
	"errors"
	"sync"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

// fakeStore is an in-memory ResultStore that records every access, so
// the tests can assert not just what the executor got but which paths
// touched the store at all.
type fakeStore struct {
	mu      sync.Mutex
	entries map[string]system.Result
	gets    int
	puts    int
	getErr  error // returned by every Get when set
	putErr  error // returned by every Put when set
}

func newFakeStore() *fakeStore {
	return &fakeStore{entries: map[string]system.Result{}}
}

func (f *fakeStore) Get(fp string) (system.Result, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	if f.getErr != nil {
		return system.Result{}, false, f.getErr
	}
	res, ok := f.entries[fp]
	return res, ok, nil
}

func (f *fakeStore) Put(fp string, res system.Result) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	if f.putErr != nil {
		return f.putErr
	}
	f.entries[fp] = res
	return nil
}

func (f *fakeStore) touched() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gets + f.puts
}

// TestStoreWriteThroughThenReadThrough is the core persistence
// contract: the first Run simulates and populates the store; a second
// Run over the same grid performs zero simulations, serving every
// owner from the store and every duplicate from the in-memory cache.
func TestStoreWriteThroughThenReadThrough(t *testing.T) {
	store := newFakeStore()
	cfgs := grid(4)
	results, st := Run(cfgs, Options{Workers: 2, Store: store, RunFunc: markedRun})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 4 || st.StoreHits != 0 {
		t.Fatalf("first run stats %+v, want 4 simulations", st)
	}
	if len(store.entries) != 4 {
		t.Fatalf("store holds %d entries after first run, want 4", len(store.entries))
	}
	for _, r := range results {
		if r.Stored || r.Fingerprint == "" {
			t.Fatalf("first-run result %d: stored=%v fp=%q", r.Index, r.Stored, r.Fingerprint)
		}
	}

	// Second run: a RunFunc that fails the test proves no simulation
	// happens at all.
	results, st = Run(cfgs, Options{Workers: 2, Store: store, RunFunc: func(system.Config) (system.Result, error) {
		t.Error("simulated despite a populated store")
		return system.Result{}, nil
	}})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 0 || st.StoreHits != 4 {
		t.Fatalf("second run stats %+v, want 4 store hits and zero runs", st)
	}
	for i, r := range results {
		if !r.Stored || r.Res.Completed != int64(i+1) {
			t.Fatalf("second-run result %d = %+v, want stored marker %d", i, r, i+1)
		}
	}
}

// TestStoreHitDuplicatesCountAsCacheHits: duplicates of a store-served
// point come from the in-memory entry and carry both flags.
func TestStoreHitDuplicatesCountAsCacheHits(t *testing.T) {
	store := newFakeStore()
	one := grid(1)
	if results, _ := Run(one, Options{Store: store, RunFunc: markedRun}); FirstErr(results) != nil {
		t.Fatal("seed run failed")
	}
	dup := []system.Config{one[0], one[0], one[0]}
	results, st := Run(dup, Options{Workers: 1, Store: store, RunFunc: func(system.Config) (system.Result, error) {
		t.Error("simulated despite store + cache")
		return system.Result{}, nil
	}})
	if st.StoreHits != 1 || st.CacheHits != 2 || st.Runs != 0 {
		t.Fatalf("stats %+v, want 1 store hit + 2 cache hits", st)
	}
	for _, r := range results {
		if !r.Stored {
			t.Errorf("result %d not marked stored", r.Index)
		}
	}
	if results[0].Cached || !results[1].Cached {
		t.Errorf("cached flags wrong: %+v", results[:2])
	}
}

// TestDisableCacheBypassesStore pins the regression the issue calls
// out: DisableCache must turn off the persistent store along with the
// in-memory cache — a "simulate everything" request may not be
// answered from disk.
func TestDisableCacheBypassesStore(t *testing.T) {
	store := newFakeStore()
	cfgs := grid(3)
	results, st := Run(cfgs, Options{DisableCache: true, Store: store, RunFunc: markedRun})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 3 || st.StoreHits != 0 {
		t.Fatalf("stats %+v, want 3 plain runs", st)
	}
	if n := store.touched(); n != 0 {
		t.Fatalf("store touched %d times under DisableCache, want 0", n)
	}
	for _, r := range results {
		if r.Stored || r.Cached || r.Fingerprint != "" {
			t.Fatalf("DisableCache result carries cache state: %+v", r)
		}
	}
}

// TestUncacheableBypassesStore: a point that has no fingerprint (trace
// capture is per-run identity, not value) must not consult or populate
// the store.
func TestUncacheableBypassesStore(t *testing.T) {
	store := newFakeStore()
	cfgs := grid(1)
	cfgs[0].Trace = &trace.Writer{}
	results, st := Run(cfgs, Options{Store: store, RunFunc: markedRun})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || store.touched() != 0 {
		t.Fatalf("uncacheable point touched the store: stats %+v, accesses %d", st, store.touched())
	}
	if results[0].Fingerprint != "" {
		t.Errorf("uncacheable point carries fingerprint %q", results[0].Fingerprint)
	}
}

// TestFaultedSweepNeverTouchesStore is the store-poisoning regression:
// an injected device fault changes results, so a faulted point must be
// neither persisted under a clean config's key nor served from one. Real
// runs, twice over the same store: the fault has to be live both times
// (a clean grid fills the store first, so a wrongly shared key would be
// served as a hit).
func TestFaultedSweepNeverTouchesStore(t *testing.T) {
	store := newFakeStore()
	clean := []system.Config{{
		App: appmodel.BluRay(), Gen: dram.DDR2, Design: system.Conv,
		Scheduler: memctrl.SchedDPQ, PriorityDemand: true, Checked: true,
		Cycles: 20_000,
	}}
	if _, st := Run(clean, Options{Store: store}); st.Runs != 1 || len(store.entries) != 1 {
		t.Fatalf("clean sweep did not populate the store: stats %+v, entries %d", st, len(store.entries))
	}
	before := store.touched()
	faulted := []system.Config{clean[0]}
	faulted[0].Fault = dram.FaultSlowCAS
	for pass := 0; pass < 2; pass++ {
		results, st := Run(faulted, Options{Store: store})
		if err := FirstErr(results); err != nil {
			t.Fatal(err)
		}
		if st.Runs != 1 || st.StoreHits != 0 || st.CacheHits != 0 {
			t.Fatalf("pass %d: faulted point not simulated afresh: %+v", pass, st)
		}
		if len(results[0].Res.Obs.Violations) == 0 {
			t.Fatalf("pass %d: the fault was not live (a clean result was served)", pass)
		}
		if results[0].Fingerprint != "" || results[0].Stored {
			t.Fatalf("pass %d: faulted point carries fingerprint %q stored=%t", pass, results[0].Fingerprint, results[0].Stored)
		}
	}
	if store.touched() != before || len(store.entries) != 1 {
		t.Fatalf("faulted sweep touched the store: %d accesses, %d entries", store.touched()-before, len(store.entries))
	}
}

// TestStorePutErrorDegrades pins the other regression from the issue:
// a result the store cannot persist (NaN metric, full disk) must
// degrade to a plain run — correct in-memory result, point not failed.
func TestStorePutErrorDegrades(t *testing.T) {
	store := newFakeStore()
	store.putErr = errors.New("not serializable")
	results, st := Run(grid(2), Options{Store: store, RunFunc: markedRun})
	if err := FirstErr(results); err != nil {
		t.Fatalf("Put failure surfaced as a point error: %v", err)
	}
	if st.Runs != 2 {
		t.Fatalf("stats %+v, want 2 runs", st)
	}
	for i, r := range results {
		if r.Stored || r.Res.Completed != int64(i+1) {
			t.Fatalf("degraded result %d = %+v", i, r)
		}
	}
	if len(store.entries) != 0 {
		t.Error("failed Puts left entries behind")
	}
}

// TestStoreGetErrorIsAMiss: a corrupt entry (Get error) re-simulates
// the point and writes the fresh result back.
func TestStoreGetErrorIsAMiss(t *testing.T) {
	store := newFakeStore()
	store.getErr = errors.New("store: corrupt entry")
	results, st := Run(grid(1), Options{Store: store, RunFunc: markedRun})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	if st.Runs != 1 || st.StoreHits != 0 || results[0].Stored {
		t.Fatalf("corrupt Get not treated as a miss: %+v / %+v", st, results[0])
	}
	if store.puts != 1 {
		t.Errorf("re-simulated result not written back: %d puts", store.puts)
	}
}

// TestFailedRunNotPersisted: only successful simulations reach Put.
func TestFailedRunNotPersisted(t *testing.T) {
	store := newFakeStore()
	boom := errors.New("boom")
	results, _ := Run(grid(1), Options{Store: store, RunFunc: func(system.Config) (system.Result, error) {
		return system.Result{}, boom
	}})
	if !errors.Is(results[0].Err, boom) {
		t.Fatalf("run error lost: %v", results[0].Err)
	}
	if store.puts != 0 {
		t.Errorf("failed run persisted: %d puts", store.puts)
	}
}
