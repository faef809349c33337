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
//   - which point answers which is planned before anything runs, from
//     the fingerprints alone (see Fingerprint): points that share a
//     canonical run (system.Config.Canonical) form one job, so a
//     repeated point — a shared baseline, a grid that revisits an
//     earlier configuration — takes its first occurrence's outcome,
//     and twins, points whose configs differ only in knobs that cannot
//     act (Table I's GSS and [4]), share one simulation and each gets
//     the result under its own design. A job runs on one worker, so no
//     worker waits on another's run.
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
	// Workers bounds the number of concurrently executing jobs (see Run).
	// Zero or negative selects runtime.GOMAXPROCS(0); 1 restores strictly
	// serial in-order execution: no goroutines are spawned, and RunFunc
	// runs in the order of each job's first point.
	Workers int

	// Context cancels the grid: every point of a job not yet started
	// settles with the context's error, and the default run function
	// (system.RunContext) abandons in-flight simulations within one
	// kernel epoch. A job checks the context once, at its start, so a
	// started job's later points are still answered from its run (a twin
	// restamped, a duplicate Cached) when the cancel lands after the run
	// finished. Nil means context.Background(). (An explicit RunFunc is
	// responsible for its own cancellation.)
	Context context.Context

	// DisableCache leaves every point without a fingerprint, so each is a
	// job of its own: every grid point simulates even when an identical
	// point (or a twin, see system.Config.Canonical) already ran in this
	// call, and the store is never touched.
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

	// Store, when non-nil, is read through and written through: every
	// point with a fingerprint that is not a duplicate within its job
	// reads the store before its job's run answers it, and every
	// successful simulated or restamped result is persisted under its
	// own point's fingerprint. A point without a fingerprint
	// (DisableCache, or not cacheable at all) bypasses it entirely. A
	// result the store cannot persist (a Put error) degrades to a plain
	// uncached run rather than failing the point, and a store Get error
	// (e.g. a corrupt entry) is treated as a miss.
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
	// Cached marks a duplicate: a point that took the outcome of an
	// earlier point with its fingerprint rather than its own simulation
	// or store read. A point that took a twin's run (see Stats.Twins) is
	// not Cached.
	Cached bool
	// Stored marks a point whose result came from the persistent store
	// (Options.Store) rather than a simulation in this process. A point
	// can be Cached and Stored at once: a duplicate of a store-served
	// fingerprint.
	Stored bool
	// Fingerprint is the point's own config hash (see Fingerprint) —
	// empty when the point is not cacheable or the cache is disabled.
	Fingerprint string
}

// Stats accounts for one Run call. The json tags are the server's
// wire form of the same totals (a run's done event).
type Stats struct {
	// Runs counts grid points answered by a simulation in this call:
	// their own, or a twin's (see Twins).
	Runs int `json:"runs"`
	// Twins counts the Runs that took a twin's simulation, restamped
	// with their own design (system.Config.Canonical), instead of
	// simulating: on a cold Tables I-III grid, Table I's nine GSS
	// points. Runs - Twins simulations were executed.
	Twins int `json:"twins"`
	// CacheHits counts duplicates (Result.Cached).
	CacheHits int `json:"cacheHits"`
	// StoreHits counts grid points read from the persistent store
	// instead of simulating (their duplicates count as CacheHits,
	// exactly as for simulated points).
	StoreHits int `json:"storeHits"`
	// Workers is the resolved worker count (after the GOMAXPROCS default
	// and the clamp to the grid size): at least 1 for a call, zero, and
	// off the wire, in a sum of calls such as the server's totals.
	Workers int `json:"workers,omitempty"`
}

// origin is how a settled point's outcome came about, for Stats.
type origin int

const (
	unrun     origin = iota // not simulated here: cancelled, stored or a duplicate
	simulated               // its own simulation
	derived                 // a twin's simulation, restamped
)

// Run executes every configuration and returns the results in
// submission order, one per config, together with execution accounting.
// It never returns an error itself: per-point failures (including
// panics) land in the corresponding Result.Err so that one bad point
// cannot disturb the indices of the rest — use FirstErr to surface them.
//
// Run plans before it runs. One serial pass chains the points into jobs
// by canonical run (Fingerprint of system.Config.Canonical), in grid
// order; a point with no fingerprint (DisableCache, or not cacheable) is
// a job of its own. Workers then take whole jobs, in the order of their
// first points, and settle a job's points in grid order:
//
//   - a point whose fingerprint an earlier point of the job had takes
//     that point's outcome, marked Cached;
//   - any other point reads the store (Options.Store);
//   - the job's first store miss simulates its own config;
//   - every later miss takes that run restamped with its own design
//     (system.Result.Restamp) — a twin.
//
// Every successful simulated or restamped result is Put under its own
// point's fingerprint.
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

	// The plan: each point's fingerprint, the next point of its job (-1
	// ends the chain), and each job's first point, in grid order.
	fps := make([]string, total)
	next := make([]int, total)
	heads := make([]int, 0, total)
	tails := make(map[string]int, total) // each job's last point, by canonical key
	for i := range cfgs {
		next[i] = -1
		if !o.DisableCache {
			fps[i], _ = Fingerprint(cfgs[i])
		}
		key := fps[i]
		if key == "" {
			heads = append(heads, i)
			continue
		}
		if canon, differs := cfgs[i].Canonical(); differs {
			key, _ = Fingerprint(canon)
		}
		if t, ok := tails[key]; ok {
			next[t] = i
		} else {
			heads = append(heads, i)
		}
		tails[key] = i
	}

	var (
		mu   sync.Mutex // guards st, done and OnProgress
		done int
	)
	// settle records one point's outcome; how says whether a simulation
	// answered it (cancelled points settle unrun and count nowhere).
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
	// job settles the points chained from head, in grid order.
	job := func(head int) {
		if err := ctx.Err(); err != nil {
			for i := head; i >= 0; i = next[i] {
				settle(i, Result{Err: err}, unrun)
			}
			return
		}
		ran := -1 // the point whose simulation answers the job's misses
	points:
		for i := head; i >= 0; i = next[i] {
			fp := fps[i]
			if fp == "" {
				// No fingerprint, no store: a plain run, every time.
				res, err := safeRun(run, cfgs[i])
				settle(i, Result{Res: res, Err: err}, simulated)
				continue
			}
			for j := head; j != i; j = next[j] {
				if fps[j] == fp {
					r := results[j]
					r.Cached = true
					settle(i, r, unrun)
					continue points
				}
			}
			// Any store error — corruption included — is a miss.
			if o.Store != nil {
				if res, ok, err := o.Store.Get(fp); ok && err == nil {
					settle(i, Result{Res: res, Stored: true, Fingerprint: fp}, unrun)
					continue
				}
			}
			r, how := Result{Fingerprint: fp}, simulated
			if ran < 0 {
				r.Res, r.Err = safeRun(run, cfgs[i])
				ran = i
			} else {
				how, r.Err = derived, results[ran].Err
				if r.Err == nil {
					r.Res, r.Err = results[ran].Res.Restamp(cfgs[i].Design)
				}
			}
			// A failed Put is advisory: the point keeps its in-memory
			// result and merely loses persistence.
			if o.Store != nil && r.Err == nil {
				_ = o.Store.Put(fp, r.Res)
			}
			settle(i, r, how)
		}
	}

	if workers == 1 {
		for _, h := range heads {
			job(h)
		}
		return results, st
	}
	var (
		wg    sync.WaitGroup
		taken atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(taken.Add(1)) - 1; k < len(heads); k = int(taken.Add(1)) - 1 {
				job(heads[k])
			}
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
