// Package sweep executes grids of independent simulation runs across a
// bounded worker pool. Every evaluation driver in the repository — the
// table matrices, the Fig. 8 curves, the ablation grids — is a list of
// system.Config points whose runs share nothing, so they fan out across
// GOMAXPROCS goroutines; because each run is deterministic for its
// (configuration, seed), parallel execution produces exactly the serial
// results, and the package guarantees it structurally:
//
//   - results are keyed by submission index, never by completion order;
//   - a panic inside one run is captured and surfaced as that point's
//     error without tearing down the rest of the grid;
//   - repeated points — a shared baseline, a grid that revisits an
//     earlier configuration — are simulated once and served from a
//     config-fingerprint cache (see Fingerprint).
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"aanoc/internal/system"
)

// Options configure one Run call.
type Options struct {
	// Workers bounds the number of concurrently executing simulations.
	// Zero or negative selects runtime.GOMAXPROCS(0); 1 restores strictly
	// serial in-order execution (no goroutines are spawned).
	Workers int

	// Context cancels the grid: points not yet started settle with the
	// context's error, and the default run function (system.RunContext)
	// abandons in-flight simulations within one kernel epoch. Nil means
	// context.Background(). (An explicit RunFunc is responsible for its
	// own cancellation.)
	Context context.Context

	// DisableCache turns off config-fingerprint deduplication, forcing
	// every grid point to simulate even when an identical point already
	// ran in this call.
	DisableCache bool

	// OnProgress, when non-nil, is invoked after each grid point settles
	// with the number of settled points and the grid size. Calls are
	// serialised (never concurrent) but, under parallel execution, not in
	// submission order.
	OnProgress func(done, total int)

	// RunFunc replaces the simulation entry point; nil selects
	// system.RunContext under Context. Tests and dry-run tooling
	// substitute fakes here.
	RunFunc func(system.Config) (system.Result, error)

	// Store, when non-nil, extends the fingerprint cache to disk:
	// before simulating a cacheable point the owning worker consults the
	// store, and after a successful simulation it persists the result
	// (read-through, write-through). The store sits strictly behind the
	// in-memory cache, so DisableCache — and any point that is not
	// cacheable at all — bypasses it entirely, and a result the store
	// cannot persist (a Put error) degrades to a plain uncached run
	// rather than failing the point. A store Get error (e.g. a corrupt
	// entry) is likewise treated as a miss: the point re-simulates.
	Store ResultStore
}

// ResultStore is the persistent result cache the executor reads
// through (implemented by internal/store). Get reports a verified hit;
// a miss is (zero, false, nil) and an error — corruption, I/O — is
// treated as a miss by the executor. Put persists one simulated
// result; its error is advisory (the executor keeps the in-memory
// result regardless).
type ResultStore interface {
	Get(fingerprint string) (system.Result, bool, error)
	Put(fingerprint string, res system.Result) error
}

// Result is the outcome of one grid point, stored at its submission
// index regardless of when the run completed.
type Result struct {
	Index int
	Res   system.Result
	Err   error
	// Cached marks a point served from the fingerprint cache rather than
	// its own simulation.
	Cached bool
	// Stored marks a point whose result came from the persistent store
	// (Options.Store) rather than a simulation in this process. A point
	// can be Cached and Stored at once: a duplicate of a store-served
	// fingerprint.
	Stored bool
	// Fingerprint is the point's canonical config hash — empty when the
	// point is not cacheable (see Fingerprint) or the cache is disabled.
	Fingerprint string
}

// Stats accounts for one Run call.
type Stats struct {
	// Runs counts simulations actually executed.
	Runs int
	// CacheHits counts grid points served from the fingerprint cache.
	CacheHits int
	// StoreHits counts grid points whose owning worker was served from
	// the persistent store instead of simulating (in-process duplicates
	// of such a point count as CacheHits, exactly as for simulated
	// points).
	StoreHits int
	// Workers is the resolved worker count (after the GOMAXPROCS default
	// and the clamp to the grid size).
	Workers int
}

// cacheEntry is one fingerprint's simulation: the first worker to claim
// the fingerprint runs it (or fetches it from the store) and closes
// done; duplicates wait.
type cacheEntry struct {
	done   chan struct{}
	res    system.Result
	err    error
	stored bool
}

// Run executes every configuration and returns the results in
// submission order, one per config, together with execution accounting.
// It never returns an error itself: per-point failures (including
// panics) land in the corresponding Result.Err so that one bad point
// cannot disturb the indices of the rest — use FirstErr to surface them.
func Run(cfgs []system.Config, o Options) ([]Result, Stats) {
	total := len(cfgs)
	results := make([]Result, total)
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > total {
		workers = total
	}
	st := Stats{Workers: workers}
	if total == 0 {
		return results, st
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	run := o.RunFunc
	if run == nil {
		run = func(cfg system.Config) (system.Result, error) {
			return system.RunContext(ctx, cfg)
		}
	}

	var (
		mu    sync.Mutex // guards cache, stats, done count, OnProgress
		cache = map[string]*cacheEntry{}
		done  int
		next  int64 = -1
	)
	// settle records one point's outcome; ran marks a point that
	// actually executed a simulation (cancelled-before-start points
	// settle with ran=false and count nowhere).
	settle := func(i int, r Result, ran bool) {
		r.Index = i
		results[i] = r
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Cached:
			st.CacheHits++
		case r.Stored:
			st.StoreHits++
		case ran:
			st.Runs++
		}
		done++
		if o.OnProgress != nil {
			o.OnProgress(done, total)
		}
	}
	work := func() {
		for {
			i := int(atomic.AddInt64(&next, 1))
			if i >= total {
				return
			}
			cfg := cfgs[i]
			if ctx.Err() != nil {
				// Cancelled: unstarted points settle immediately instead of
				// simulating; their Result.Err carries the context error.
				settle(i, Result{Err: ctx.Err()}, false)
				continue
			}
			fp, cacheable := Fingerprint(cfg)
			if o.DisableCache || !cacheable {
				// The persistent store sits behind the fingerprint cache, so
				// this path — disabled cache or uncacheable point — never
				// touches it either: a plain run, every time.
				res, err := safeRun(run, cfg)
				settle(i, Result{Res: res, Err: err}, true)
				continue
			}
			mu.Lock()
			e, hit := cache[fp]
			if !hit {
				e = &cacheEntry{done: make(chan struct{})}
				cache[fp] = e
			}
			mu.Unlock()
			if !hit {
				// Owner: read through the persistent store, simulate on a
				// miss (or any store error — corruption degrades to a rerun),
				// and write the fresh result back. A failed Put is advisory:
				// the point keeps its in-memory result and merely loses
				// persistence.
				if o.Store != nil {
					if res, ok, err := o.Store.Get(fp); ok && err == nil {
						e.res, e.stored = res, true
					}
				}
				if !e.stored {
					e.res, e.err = safeRun(run, cfg)
					if o.Store != nil && e.err == nil {
						_ = o.Store.Put(fp, e.res)
					}
				}
				close(e.done)
				settle(i, Result{Res: e.res, Err: e.err, Stored: e.stored, Fingerprint: fp}, true)
				continue
			}
			// The owning worker is executing the entry right now (it
			// never parks a claimed fingerprint), so this wait always
			// makes progress.
			<-e.done
			settle(i, Result{Res: e.res, Err: e.err, Cached: true, Stored: e.stored, Fingerprint: fp}, false)
		}
	}

	if workers == 1 {
		work()
		return results, st
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return results, st
}

// safeRun executes one simulation, converting a panic into that point's
// error so a defect in one configuration cannot take down the grid.
func safeRun(run func(system.Config) (system.Result, error), cfg system.Config) (res system.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: run panicked: %v", r)
		}
	}()
	return run(cfg)
}

// FirstErr returns the error of the earliest-submitted failed point, or
// nil when every point succeeded.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("sweep: point %d: %w", r.Index, r.Err)
		}
	}
	return nil
}

// Collect runs the grid and unwraps the raw results in submission
// order, surfacing the first per-point error — the drop-in replacement
// for a serial loop over system.Run.
func Collect(cfgs []system.Config, o Options) ([]system.Result, error) {
	results, _ := Run(cfgs, o)
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]system.Result, len(results))
	for i, r := range results {
		out[i] = r.Res
	}
	return out, nil
}
