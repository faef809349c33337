package aanoc

import (
	"context"
	"errors"
	"fmt"

	"aanoc/internal/appmodel"
	"aanoc/internal/store"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// This file is the typed sweep facade: grids of Configs executed
// across the bounded worker pool with fingerprint deduplication and an
// optional persistent result store — the programmatic surface
// aanoc serve (and any other embedding service) builds on, so servers
// never reach into the internal packages.

// Sweep-facade sentinels; test with errors.Is.
var (
	// ErrBadGrid reports a sweep grid that cannot run: empty, or holding
	// a point whose Config fails validation (the point's own sentinel —
	// ErrUnknownApp, ErrBadChannels, ... — is wrapped alongside).
	ErrBadGrid = errors.New("invalid sweep grid")
	// ErrStoreCorrupt marks a store entry that failed integrity
	// verification. The sweep executor handles it internally (the entry
	// is removed and the point re-simulated); it surfaces only from
	// direct Store method calls, e.g. a server looking up one result.
	ErrStoreCorrupt = store.ErrCorrupt
)

// Store is the persistent, content-addressed result store: simulation
// results keyed by the canonical fingerprint of their fully resolved
// configuration, written atomically with per-entry integrity hashes,
// bounded by an LRU byte cap, and namespaced by the store's one format
// version (a new format silently retires stale entries; `aanoc store
// gc` removes them). See DESIGN.md, "Result store & server".
type Store = store.Store

// StoreOptions configure OpenStore; the zero value selects the
// defaults (a 1 GiB cap).
type StoreOptions = store.Options

// StoreStats are one Store handle's counters plus the namespace
// occupancy.
type StoreStats = store.Stats

// OpenStore opens (creating if needed) the result store rooted at dir.
// Multiple processes may share one directory: writes are atomic
// renames of identical bytes (runs are deterministic), so concurrent
// writers converge on a single entry per fingerprint.
func OpenStore(dir string, o StoreOptions) (*Store, error) {
	return store.Open(dir, o)
}

// StoreVersion is the namespace entries are stored under, "v" and the
// store's format version. It changes, retiring all existing entries,
// when the entry layout, the shape of a stored Result or what a run
// computes for a configuration does.
func StoreVersion() string { return store.Version() }

// SweepGrid is a list of simulation points to execute. Points are
// independent; duplicates (after resolution — a default spelled
// explicitly is the same point) are simulated once.
type SweepGrid struct {
	Points []Config
}

// SweepOptions configure one Sweep call.
type SweepOptions struct {
	// Context, when non-nil, cancels the sweep: points not yet started
	// settle with the context's error and in-flight simulations abandon
	// within one kernel epoch.
	Context context.Context
	// Workers bounds concurrent simulations: 0 selects
	// runtime.GOMAXPROCS(0), 1 runs strictly serially. Results are
	// byte-identical at any setting.
	Workers int
	// DisableCache forces every point to simulate, bypassing both the
	// in-process fingerprint cache and the persistent Store.
	DisableCache bool
	// Store, when non-nil, persists results across processes: points
	// whose fingerprint is already stored are served from disk without
	// simulating, and fresh results are written back.
	Store *Store
	// OnProgress, when non-nil, is invoked after each point settles with
	// the number settled and the grid size (serialised, not ordered).
	OnProgress func(done, total int)
}

// internal maps the options onto the executor's — the one place the
// facade hands a store to it: a nil *Store assigned to the executor's
// interface field would read as a store that is set.
func (o SweepOptions) internal() sweep.Options {
	opts := sweep.Options{
		Workers:      o.Workers,
		Context:      o.Context,
		DisableCache: o.DisableCache,
		OnProgress:   o.OnProgress,
	}
	if o.Store != nil {
		opts.Store = o.Store
	}
	return opts
}

// SweepResult is one grid point's outcome, at its submission index:
// Res is the point's run (zero when Err is set), whose Obs carries the
// full observability report; Err is its failure, if any — a cancelled
// context, a simulation error — and one failed point does not disturb
// the others. Fingerprint is the point's canonical configuration hash,
// the key under which its result is (or would be) stored, empty when the
// point was not cacheable or the cache was disabled. Cached marks a
// duplicate served from the in-process cache; Stored marks a result that
// came from the persistent store rather than a simulation in this
// process. A duplicate of a store-served point carries both.
type SweepResult = sweep.Result

// SweepStats account for one Sweep call. Runs counts points answered by
// a simulation in this call — their own, or a twin's restamped with
// their design, which Twins counts (Table I's GSS points take their [4]
// twins' runs); CacheHits counts points served from the in-process
// fingerprint cache, StoreHits points served from the persistent store;
// Workers is the resolved worker count.
type SweepStats = sweep.Stats

// Sweep executes every point of the grid and returns the results in
// submission order. The grid is validated up front: an empty grid or
// any invalid point returns an error wrapping ErrBadGrid (and, for an
// invalid point, its field sentinel) before anything simulates.
// Per-point execution failures land in the corresponding
// SweepResult.Err, never in the returned error — use SweepFirstErr to
// surface them.
func Sweep(g SweepGrid, o SweepOptions) ([]SweepResult, SweepStats, error) {
	var models modelClones
	return sweepWith(g, o, models.byName)
}

// sweepWith is Sweep with the points' models looked up by byName.
func sweepWith(g SweepGrid, o SweepOptions, byName func(string) (appmodel.App, error)) ([]SweepResult, SweepStats, error) {
	if len(g.Points) == 0 {
		return nil, SweepStats{}, fmt.Errorf("aanoc: %w: no points", ErrBadGrid)
	}
	cfgs := make([]system.Config, len(g.Points))
	for i, c := range g.Points {
		cfg, err := c.resolve(byName)
		if err != nil {
			return nil, SweepStats{}, fmt.Errorf("aanoc: %w: point %d: %w", ErrBadGrid, i, err)
		}
		cfgs[i] = cfg
	}
	out, st := sweep.Run(cfgs, o.internal())
	return out, st, nil
}

// modelClones is one Sweep call's clone of each model its points name:
// the points share it, as the tables' grids share theirs, and no run
// writes into a model. It is the call's own, never appmodel's table.
type modelClones []appmodel.App

// byName looks name up in appmodel once per call.
func (m *modelClones) byName(name string) (appmodel.App, error) {
	for _, app := range *m {
		if app.Name == name {
			return app, nil
		}
	}
	app, err := appmodel.ByName(name)
	if err == nil {
		*m = append(*m, app)
	}
	return app, err
}

// SweepFirstErr returns the error of the earliest-submitted failed
// point, or nil when every point succeeded.
func SweepFirstErr(results []SweepResult) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("aanoc: sweep point %d: %w", r.Index, r.Err)
		}
	}
	return nil
}
