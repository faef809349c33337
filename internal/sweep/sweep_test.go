package sweep

import (
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

// grid builds n distinct configurations (distinct seeds, so no two
// share a fingerprint).
func grid(n int) []system.Config {
	cfgs := make([]system.Config, n)
	for i := range cfgs {
		cfgs[i] = system.Config{
			App: appmodel.BluRay(), Gen: dram.DDR2,
			Design: system.GSSSAGM, Cycles: 1000, Seed: uint64(i + 1),
		}
	}
	return cfgs
}

// markedRun is a fake RunFunc that tags each result with its config's
// seed, so tests can check results landed at the right index.
func markedRun(cfg system.Config) (system.Result, error) {
	return system.Result{Completed: int64(cfg.Seed)}, nil
}

func TestEmptyGrid(t *testing.T) {
	results, st := Run(nil, Options{RunFunc: markedRun})
	if len(results) != 0 {
		t.Fatalf("empty grid returned %d results", len(results))
	}
	if st.Runs != 0 || st.CacheHits != 0 {
		t.Fatalf("empty grid accounted work: %+v", st)
	}
}

func TestSingleWorkerRunsInSubmissionOrder(t *testing.T) {
	var order []uint64
	cfgs := grid(8)
	results, st := Run(cfgs, Options{
		Workers: 1,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			order = append(order, cfg.Seed) // safe: serial mode
			return markedRun(cfg)
		},
	})
	if st.Workers != 1 || st.Runs != 8 {
		t.Fatalf("stats = %+v, want 1 worker / 8 runs", st)
	}
	for i, seed := range order {
		if seed != uint64(i+1) {
			t.Fatalf("serial execution order %v, want submission order", order)
		}
	}
	for i, r := range results {
		if r.Index != i || r.Res.Completed != int64(i+1) {
			t.Fatalf("result %d = %+v, want index/marker %d", i, r, i+1)
		}
	}
}

func TestWorkerCountExceedsGridSize(t *testing.T) {
	cfgs := grid(3)
	results, st := Run(cfgs, Options{Workers: 64, RunFunc: markedRun})
	if st.Workers != 3 {
		t.Fatalf("workers resolved to %d, want clamp to grid size 3", st.Workers)
	}
	for i, r := range results {
		if r.Err != nil || r.Res.Completed != int64(i+1) {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestResultsKeyedBySubmissionIndex(t *testing.T) {
	// Early submissions finish last: completion order is the reverse of
	// submission order, but results must still land at their indices.
	cfgs := grid(6)
	results, _ := Run(cfgs, Options{
		Workers: 6,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			time.Sleep(time.Duration(7-cfg.Seed) * 5 * time.Millisecond)
			return markedRun(cfg)
		},
	})
	for i, r := range results {
		if r.Index != i || r.Res.Completed != int64(i+1) {
			t.Fatalf("result %d = %+v, want marker %d", i, r, i+1)
		}
	}
}

func TestErrorMidGridKeepsRemainingOrdered(t *testing.T) {
	cfgs := grid(5)
	boom := errors.New("boom")
	results, st := Run(cfgs, Options{
		Workers: 2,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			if cfg.Seed == 3 {
				return system.Result{}, boom
			}
			return markedRun(cfg)
		},
	})
	if st.Runs != 5 {
		t.Fatalf("error aborted the grid: %+v", st)
	}
	for i, r := range results {
		if i == 2 {
			if !errors.Is(r.Err, boom) {
				t.Fatalf("point 2 error = %v, want boom", r.Err)
			}
			continue
		}
		if r.Err != nil || r.Res.Completed != int64(i+1) {
			t.Fatalf("point %d = %+v, want marker %d", i, r, i+1)
		}
	}
	err := FirstErr(results)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "point 2") {
		t.Fatalf("FirstErr = %v, want wrapped boom at point 2", err)
	}
}

func TestPanicBecomesPointError(t *testing.T) {
	cfgs := grid(4)
	results, _ := Run(cfgs, Options{
		Workers: 2,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			if cfg.Seed == 2 {
				panic("splitter exploded")
			}
			return markedRun(cfg)
		},
	})
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "splitter exploded") {
		t.Fatalf("panic not captured: %+v", results[1])
	}
	for _, i := range []int{0, 2, 3} {
		if results[i].Err != nil {
			t.Fatalf("panic leaked into point %d: %v", i, results[i].Err)
		}
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	// Three distinct fingerprints; the first repeated four times, the
	// second twice, interleaved — six hits over nine points.
	base := grid(3)
	cfgs := []system.Config{
		base[0], base[1], base[0], base[2], base[0],
		base[1], base[0], base[0], base[0],
	}
	wantHits := len(cfgs) - 3
	for _, workers := range []int{1, 4} {
		var executed int64
		results, st := Run(cfgs, Options{
			Workers: workers,
			RunFunc: func(cfg system.Config) (system.Result, error) {
				atomic.AddInt64(&executed, 1)
				return markedRun(cfg)
			},
		})
		if executed != 3 {
			t.Fatalf("workers=%d: %d simulations executed, want 3", workers, executed)
		}
		if st.Runs != 3 || st.CacheHits != wantHits {
			t.Fatalf("workers=%d: stats %+v, want 3 runs / %d hits", workers, st, wantHits)
		}
		var cached int
		for i, r := range results {
			if r.Res.Completed != int64(cfgs[i].Seed) {
				t.Fatalf("workers=%d: point %d served wrong result %+v", workers, i, r)
			}
			if r.Cached {
				cached++
			}
		}
		if cached != wantHits {
			t.Fatalf("workers=%d: %d results flagged cached, want %d", workers, cached, wantHits)
		}
	}
}

func TestDisableCacheRunsEveryPoint(t *testing.T) {
	base := grid(1)
	cfgs := []system.Config{base[0], base[0], base[0]}
	var executed int64
	_, st := Run(cfgs, Options{
		Workers:      2,
		DisableCache: true,
		RunFunc: func(cfg system.Config) (system.Result, error) {
			atomic.AddInt64(&executed, 1)
			return markedRun(cfg)
		},
	})
	if executed != 3 || st.Runs != 3 || st.CacheHits != 0 {
		t.Fatalf("DisableCache: executed=%d stats=%+v, want 3 runs", executed, st)
	}
}

func TestCachedErrorPropagatesToDuplicates(t *testing.T) {
	base := grid(1)
	cfgs := []system.Config{base[0], base[0]}
	boom := errors.New("boom")
	results, st := Run(cfgs, Options{
		Workers: 1,
		RunFunc: func(system.Config) (system.Result, error) { return system.Result{}, boom },
	})
	if st.Runs != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want the failure cached", st)
	}
	if !errors.Is(results[0].Err, boom) || !errors.Is(results[1].Err, boom) {
		t.Fatalf("cached error lost: %v / %v", results[0].Err, results[1].Err)
	}
}

func TestProgressSerialisedAndComplete(t *testing.T) {
	cfgs := grid(10)
	var calls [][2]int
	_, _ = Run(cfgs, Options{
		Workers: 4,
		RunFunc: markedRun,
		OnProgress: func(done, total int) {
			calls = append(calls, [2]int{done, total}) // safe: serialised under the executor lock
		},
	})
	if len(calls) != 10 {
		t.Fatalf("%d progress calls, want 10", len(calls))
	}
	for i, c := range calls {
		if c[0] != i+1 || c[1] != 10 {
			t.Fatalf("progress call %d = %v, want (%d, 10)", i, c, i+1)
		}
	}
}

// TestFingerprintPinned holds the store's key bytes still across
// refactors: the literal is a Table I point's fingerprint in the codec
// form of store format v5. A change to system.Config's type tree moves
// it and turns every populated store cold for the keys it touches. A
// model with no memory ports must hash, not panic — the executor
// fingerprints before it validates.
func TestFingerprintPinned(t *testing.T) {
	cfg := system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM, Cycles: 5000}
	const want = "015b9b78f0dc566474d9044c03be4fc2fd947fe0d91f08704847bdd9a92f493e"
	if got, _ := Fingerprint(cfg); got != want {
		t.Errorf("Table I ddtv/DDR3/GSS+SAGM fingerprint %s, want %s", got, want)
	}
	if _, ok := Fingerprint(system.Config{}); !ok {
		t.Error("the zero config did not fingerprint")
	}
}

func TestFingerprintCanonicalises(t *testing.T) {
	implicit := system.Config{App: appmodel.BluRay(), Gen: dram.DDR2, Design: system.GSSSAGM}
	explicit := implicit
	explicit.Cycles = 200_000
	explicit.PCT = 3
	explicit.Seed = 0xA11CE
	fa, ok := Fingerprint(implicit)
	if !ok {
		t.Fatal("plain config not cacheable")
	}
	fb, _ := Fingerprint(explicit)
	if fa != fb {
		t.Fatal("defaulted and explicit spellings of one run fingerprint differently")
	}
	for name, mutate := range map[string]func(*system.Config){
		"seed":   func(c *system.Config) { c.Seed = 7 },
		"design": func(c *system.Config) { c.Design = system.Conv },
		"cycles": func(c *system.Config) { c.Cycles = 100 },
		"app":    func(c *system.Config) { c.App = appmodel.SingleDTV() },
		"clock":  func(c *system.Config) { c.ClockMHz = 999 },
		// Warmup -1 is the explicit no-warmup sentinel: it resolves to
		// warmup 0, which differs from the default Cycles/10, so the runs
		// are observably different and must not share a cache entry.
		"warmup sentinel": func(c *system.Config) { c.Warmup = -1 },
		// SampleEvery never perturbs the simulation, but a sampled run's
		// Result carries the time series — distinct cache entries.
		"sample interval": func(c *system.Config) { c.SampleEvery = 1000 },
	} {
		other := implicit
		mutate(&other)
		if fo, _ := Fingerprint(other); fo == fa {
			t.Fatalf("changing %s did not change the fingerprint", name)
		}
	}

	// The sentinel resolves stably: two -1 spellings share a fingerprint,
	// as do a default-warmup config and its explicit Cycles/10 spelling.
	s1, s2 := implicit, implicit
	s1.Warmup, s2.Warmup = -1, -1
	f1, _ := Fingerprint(s1)
	f2, _ := Fingerprint(s2)
	if f1 != f2 {
		t.Fatal("warmup sentinel fingerprints unstably")
	}
	spelled := implicit
	spelled.Warmup = 20_000 // the default Cycles/10 written out
	if fs, _ := Fingerprint(spelled); fs != fa {
		t.Fatal("explicit default warmup fingerprints differently from implicit")
	}
	// NoIdleSkip changes how the kernel walks the cycles, never a result:
	// both settings must share one cache entry.
	ticked := implicit
	ticked.NoIdleSkip = true
	if ft, ok := Fingerprint(ticked); !ok || ft != fa {
		t.Fatal("NoIdleSkip split the fingerprint")
	}
}

// perturb changes the leaf v to a different value of its type,
// reporting false for a kind it does not know — a new kind of field must
// be taught here before TestFingerprintCoversEveryField can vouch for it.
func perturb(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem())) // nil in the base config
	default:
		return false
	}
	return true
}

// eachLeaf calls visit on every leaf under v, in a fixed order, with its
// path: it descends into every struct field and into element 0 of a
// non-empty slice, and a slice is a leaf itself (its length is keyed).
func eachLeaf(path string, v reflect.Value, visit func(string, reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(strings.TrimPrefix(path+"."+v.Type().Field(i).Name, "."), v.Field(i), visit)
		}
		return
	case reflect.Slice:
		if v.Len() > 0 {
			eachLeaf(path+"[0]", v.Index(0), visit)
		}
	}
	visit(path, v)
}

// TestFingerprintCoversEveryField makes the cache key's coverage
// structural: changing any one leaf of system.Config — down into the
// application model's mesh, ports, clocks, cores and streams and into a
// replay record — must change the fingerprint or make the config
// uncacheable, unless the field is listed here with the reason it may
// share an entry. A field tagged `codec:"-"` and not listed here would
// otherwise make the store serve one run's row for another's.
func TestFingerprintCoversEveryField(t *testing.T) {
	exempt := map[string]string{
		"NoIdleSkip": "changes how the kernel walks the cycles, never a result (TestIdleSkipEquivalence)",
	}
	// A fresh base per perturbation: copies of a config share the
	// model's slices.
	base := func() system.Config {
		cfg := grid(1)[0]
		cfg.Replay = []trace.Record{{Cycle: 5, Core: "cpu", Kind: "R", Class: "demand", Bank: 1, Row: 2, Col: 8, Beats: 4}}
		return cfg.Resolved()
	}
	want, ok := Fingerprint(base())
	if !ok {
		t.Fatal("base config not cacheable")
	}
	var paths []string
	eachLeaf("", reflect.ValueOf(base()), func(path string, _ reflect.Value) { paths = append(paths, path) })
	for i, path := range paths {
		cfg := base()
		handled, k := false, 0
		eachLeaf("", reflect.ValueOf(&cfg).Elem(), func(_ string, v reflect.Value) {
			if k == i {
				handled = perturb(v)
			}
			k++
		})
		if !handled {
			t.Errorf("%s: perturb does not handle its kind", path)
			continue
		}
		got, ok := Fingerprint(cfg)
		_, listed := exempt[path]
		switch changed := !ok || got != want; {
		case !changed && !listed:
			t.Errorf("changing %s leaves the fingerprint unchanged: add it to Fingerprint, or to exempt with the reason", path)
		case changed && listed:
			t.Errorf("%s is exempt (%s) but changes the fingerprint", path, exempt[path])
		}
	}
}

func TestFingerprintTraceCaptureNotCacheable(t *testing.T) {
	cfg := grid(1)[0]
	cfg.Trace = &trace.Writer{}
	if _, ok := Fingerprint(cfg); ok {
		t.Fatal("trace-capture config must not be cacheable")
	}
}
