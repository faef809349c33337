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
//     config-fingerprint cache (see Fingerprint), and so are twins:
//     points whose configs differ only in knobs that cannot act
//     (system.Config.Canonical), such as Table I's GSS and [4], share
//     one simulation and each gets the result under its own design.
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
	// every grid point to simulate even when an identical point (or a
	// twin, see system.Config.Canonical) already ran in this call.
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
	// its own simulation: a duplicate of an earlier point. A point that
	// took a twin's run (see Stats.Twins) is not Cached.
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
	// Runs counts grid points answered by a simulation in this call:
	// their own, or a twin's (see Twins).
	Runs int
	// Twins counts the Runs that took a twin's simulation, restamped
	// with their own design (system.Config.Canonical), instead of
	// simulating: on a cold Tables I-III grid, Table I's nine GSS
	// points. Runs - Twins simulations were executed.
	Twins int
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

// origin is how a settled point's outcome came about, for Stats.
type origin int

const (
	unrun     origin = iota // not simulated here: cancelled, stored or a duplicate
	simulated               // its own simulation
	derived                 // a twin's simulation, restamped
)

// entry is one fingerprint's outcome. The first point to claim a
// fingerprint owns the entry: it reads the store and, on a miss, either
// simulates or attaches the entry to a twin already simulating the same
// canonical run (system.Config.Canonical). Later points with the
// fingerprint attach to the entry. Nobody waits on a run: whoever
// finishes an entry settles every point attached to it.
type entry struct {
	owner  int // the point that claimed the fingerprint
	fp     string
	design system.Design

	done bool
	r    Result // the owner's outcome, once done

	dups  []int    // later points with this fingerprint
	twins []*entry // entries whose simulation is this one's
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
		mu      sync.Mutex            // guards the maps, every entry, stats, done count, OnProgress
		entries = map[string]*entry{} // by point fingerprint
		sims    = map[string]*entry{} // simulating entries, by their canonical config's fingerprint
		done    int
		next    int64 = -1
	)
	// settle records one point's outcome; how says whether a simulation
	// answered it (cancelled-before-start points settle unrun and count
	// nowhere).
	settle := func(i int, r Result, how origin) {
		r.Index = i
		results[i] = r
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Cached:
			st.CacheHits++
		case r.Stored:
			st.StoreHits++
		case how == simulated:
			st.Runs++
		case how == derived:
			st.Runs++
			st.Twins++
		}
		done++
		if o.OnProgress != nil {
			o.OnProgress(done, total)
		}
	}
	// derive makes a twin's successful run the point's own and persists
	// it under the point's fingerprint, as the point's own run would be.
	derive := func(e *entry, res system.Result, err error) system.Result {
		if err != nil {
			return res
		}
		res = res.Restamp(e.design)
		if o.Store != nil {
			_ = o.Store.Put(e.fp, res)
		}
		return res
	}
	// finish records e's outcome r and settles its owner, then every
	// point attached to it: duplicates take the result as it is, twins
	// restamped with their own design.
	var finish func(e *entry, r Result, how origin)
	finish = func(e *entry, r Result, how origin) {
		r.Fingerprint = e.fp
		mu.Lock()
		e.r, e.done = r, true
		dups, twins := e.dups, e.twins
		e.dups, e.twins = nil, nil
		mu.Unlock()
		settle(e.owner, r, how)
		r.Cached = true
		for _, i := range dups {
			settle(i, r, unrun)
		}
		for _, t := range twins {
			finish(t, Result{Res: derive(t, r.Res, r.Err), Err: r.Err}, derived)
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
				settle(i, Result{Err: ctx.Err()}, unrun)
				continue
			}
			fp, cacheable := Fingerprint(cfg)
			if o.DisableCache || !cacheable {
				// The persistent store sits behind the fingerprint cache, so
				// this path — disabled cache or uncacheable point — never
				// touches it either: a plain run, every time.
				res, err := safeRun(run, cfg)
				settle(i, Result{Res: res, Err: err}, simulated)
				continue
			}
			mu.Lock()
			if e := entries[fp]; e != nil {
				if !e.done {
					// Whoever finishes e settles this point too.
					e.dups = append(e.dups, i)
					mu.Unlock()
					continue
				}
				r := e.r
				mu.Unlock()
				r.Cached = true
				settle(i, r, unrun)
				continue
			}
			e := &entry{owner: i, fp: fp, design: cfg.Design}
			entries[fp] = e
			mu.Unlock()
			// Owner: read through the persistent store; any store error —
			// corruption included — is a miss.
			if o.Store != nil {
				if res, ok, err := o.Store.Get(fp); ok && err == nil {
					finish(e, Result{Res: res, Stored: true}, unrun)
					continue
				}
			}
			// A miss simulates once per canonical run: a twin's simulation
			// in flight or done serves this point restamped.
			key := fp
			if canon, differs := cfg.Canonical(); differs {
				key, _ = Fingerprint(canon)
			}
			mu.Lock()
			if s := sims[key]; s != nil {
				if !s.done {
					s.twins = append(s.twins, e)
					mu.Unlock()
					continue
				}
				r := s.r
				mu.Unlock()
				finish(e, Result{Res: derive(e, r.Res, r.Err), Err: r.Err}, derived)
				continue
			}
			sims[key] = e
			mu.Unlock()
			// Simulate, and write the fresh result back. A failed Put is
			// advisory: the point keeps its in-memory result and merely
			// loses persistence.
			res, err := safeRun(run, cfg)
			if o.Store != nil && err == nil {
				_ = o.Store.Put(fp, res)
			}
			finish(e, Result{Res: res, Err: err}, simulated)
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
