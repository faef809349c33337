// Package serve implements the aanoc serve HTTP API: sweep-as-a-
// service over the typed facade. A client POSTs a grid of simulation
// points; the server fans it across the bounded worker pool (deduped
// in-process by configuration fingerprint and, when a result store is
// attached, across every process that ever shared the store), streams
// progress as NDJSON, and serves any stored observability report by
// fingerprint.
//
// The API is versioned under /v1 and deliberately small:
//
//	POST   /v1/sweep              start a sweep; 202 {"id","total"}
//	GET    /v1/runs/{id}          NDJSON progress + final results line
//	DELETE /v1/runs/{id}          cancel a running sweep; 204
//	GET    /v1/results/{fp}       stored obs report for a fingerprint
//	GET    /v1/healthz            liveness
//	GET    /v1/statsz             request/run/store counters
//
// The server is a thin adapter: all semantics — validation sentinels,
// fingerprinting, store versioning, cache bypass rules — live in the
// aanoc facade, so anything the HTTP surface can do a Go embedder can
// do with the same guarantees. A grid is checked in two places: a body
// that is not exactly one JSON value of the request's shape (an unknown
// or misspelt key, trailing data) or a name the facade parsers do not
// know (model, design, scheme, scheduler) is a 400 at POST; a value out
// of range (generation 9, three channels on one
// port, a clock that is no speed grade, nine virtual channels, negative
// cycles) is accepted with 202 and rejected by aanoc.Sweep's one
// validation pass before anything simulates — the run's single event is
// a "done" carrying the grid error, with no stats and nothing counted.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"time"

	"aanoc"
	"aanoc/internal/obs"
)

// Options configure a Server.
type Options struct {
	// Store, when non-nil, backs every sweep (read-through persistence)
	// and the /v1/results endpoint. A store-less server still sweeps;
	// results are simply not retrievable afterwards.
	Store *aanoc.Store
	// Workers bounds concurrent simulations per sweep (0 selects
	// GOMAXPROCS).
	Workers int
	// RunTimeout, when positive, bounds each sweep's wall-clock time:
	// on expiry in-flight points abandon within one kernel epoch and the
	// remaining points settle with the deadline error.
	RunTimeout time.Duration
	// MaxPoints bounds one request's grid size (default 4096): sweeps
	// are CPU-bound, so an unbounded grid is a denial of service on the
	// worker pool.
	MaxPoints int
}

const (
	// maxBodyBytes bounds the request body.
	maxBodyBytes = 8 << 20
	// keepFinished is how many finished runs stay answerable: when a run
	// finishes, the one that finished keepFinished runs before it is
	// forgotten (its id answers 404 from then on). Active runs are never
	// forgotten.
	keepFinished = 256
)

// Server carries the run registry and the (optional) result store. Use
// New + Handler; the zero value is not usable.
type Server struct {
	opts Options

	mu       sync.Mutex
	stats    statsz          // the lifetime totals and the active-run count
	runs     map[string]*run // every active run and the last keepFinished to finish
	finished []*run          // the latter, oldest first
	nextID   int64
	closed   bool

	// sweepFn is the sweep entry point — aanoc.Sweep in production,
	// replaced by tests that need a slow or failing grid without burning
	// simulator cycles.
	sweepFn func(aanoc.SweepGrid, aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error)
}

// New builds a Server.
func New(o Options) *Server {
	if o.MaxPoints <= 0 {
		o.MaxPoints = 4096
	}
	return &Server{opts: o, runs: map[string]*run{}, sweepFn: aanoc.Sweep}
}

// Close cancels every active run. In-flight simulations abandon within
// one kernel epoch; streams drain their final line and end.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, r := range s.runs { // order-free: every run is cancelled, none reports
		r.cancel()
	}
}

// Handler returns the /v1 API handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStream)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleRunCancel)
	mux.HandleFunc("GET /v1/results/{fingerprint}", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/statsz", s.handleStatsz)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.stats.Requests++
		s.mu.Unlock()
		mux.ServeHTTP(w, r)
	})
}

// Point is one grid point on the wire: aanoc.Config with the enum
// fields spelled as their parseable names, so clients write
// {"design":"gss+sagm"} instead of internal ordinals.
type Point struct {
	Model           string `json:"model,omitempty"`
	Design          string `json:"design,omitempty"`
	Generation      int    `json:"generation,omitempty"`
	ClockMHz        int    `json:"clockMHz,omitempty"`
	Channels        int    `json:"channels,omitempty"`
	ChannelScheme   string `json:"channelScheme,omitempty"`
	Scheduler       string `json:"scheduler,omitempty"`
	PCT             int    `json:"pct,omitempty"`
	GSSRouters      int    `json:"gssRouters,omitempty"`
	PriorityDemand  bool   `json:"priorityDemand,omitempty"`
	VirtualChannels int    `json:"virtualChannels,omitempty"`
	AdaptiveRouting bool   `json:"adaptiveRouting,omitempty"`
	Cycles          int64  `json:"cycles,omitempty"`
	Warmup          int64  `json:"warmup,omitempty"`
	Seed            uint64 `json:"seed,omitempty"`
	SampleEvery     int64  `json:"sampleEvery,omitempty"`
	Subarrays       int    `json:"subarrays,omitempty"`
	Checked         bool   `json:"checked,omitempty"`
}

// config resolves the wire point into a facade Config, going through
// the facade parsers: it rejects unknown names only. Ranges and
// cross-field rules are Config.Validate's, which aanoc.Sweep applies.
func (p Point) config() (c aanoc.Config, err error) {
	c = aanoc.Config{
		Generation:      p.Generation,
		ClockMHz:        p.ClockMHz,
		Channels:        p.Channels,
		PCT:             p.PCT,
		GSSRouters:      p.GSSRouters,
		PriorityDemand:  p.PriorityDemand,
		VirtualChannels: p.VirtualChannels,
		AdaptiveRouting: p.AdaptiveRouting,
		Cycles:          p.Cycles,
		Warmup:          p.Warmup,
		Seed:            p.Seed,
		SampleEvery:     p.SampleEvery,
		Subarrays:       p.Subarrays,
		Checked:         p.Checked,
	}
	if p.Model != "" {
		c.Model, err = aanoc.ParseApp(p.Model)
	}
	if err == nil && p.Design != "" {
		c.Design, err = aanoc.ParseDesign(p.Design)
	}
	if err == nil && p.ChannelScheme != "" {
		c.ChannelScheme, err = aanoc.ParseChannelScheme(p.ChannelScheme)
	}
	if err == nil {
		c.Scheduler, err = aanoc.ParseScheduler(p.Scheduler)
	}
	return c, err
}

// SweepRequest is the POST /v1/sweep body.
type SweepRequest struct {
	Points []Point `json:"points"`
	// DisableCache forces every point to simulate (bypassing both the
	// in-process cache and the store) — the "measure it fresh" escape
	// hatch.
	DisableCache bool `json:"disableCache,omitempty"`
}

// SweepAccepted is the POST /v1/sweep response.
type SweepAccepted struct {
	ID    string `json:"id"`
	Total int    `json:"total"`
}

// Event is one NDJSON line of a run stream. Type is "progress" while
// points settle and "done" exactly once at the end; the done event
// carries the stats and the per-point outcomes.
type Event struct {
	Type    string       `json:"type"`
	Done    int          `json:"done,omitempty"`
	Total   int          `json:"total,omitempty"`
	Stats   *SweepStats  `json:"stats,omitempty"`
	Results []PointState `json:"results,omitempty"`
	Error   string       `json:"error,omitempty"`
}

// SweepStats are aanoc.SweepStats, whose json tags are the wire form.
type SweepStats = aanoc.SweepStats

// PointState is one point's outcome in a done event: the fingerprint
// (the key for GET /v1/results), cache provenance, the headline
// metrics, and the error if the point failed. The full observability
// report is intentionally not inlined — fetch it by fingerprint.
type PointState struct {
	Index       int     `json:"index"`
	Fingerprint string  `json:"fingerprint,omitempty"`
	Cached      bool    `json:"cached,omitempty"`
	Stored      bool    `json:"stored,omitempty"`
	Utilization float64 `json:"utilization,omitempty"`
	LatencyAll  float64 `json:"latencyAll,omitempty"`
	Completed   int64   `json:"completed,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// run is one sweep's record: how many points have settled, the terminal
// event once there is one, and the cancel handle. Nothing is logged:
// stream readers wait on changed, so one that falls behind, or connects
// late, is told the latest count rather than replayed every one.
type run struct {
	id     string
	total  int
	cancel context.CancelFunc

	// Under Server.mu, which changed waits on.
	changed *sync.Cond
	settled int
	final   *Event
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	// The body is exactly one JSON value of the request's shape: a
	// misspelt key silently dropped would run a different grid than the
	// client wrote.
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var body SweepRequest
	err := dec.Decode(&body)
	if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		err = errors.New("trailing data after the grid")
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err))
		return
	}
	if len(body.Points) == 0 {
		// The facade would reject this too (ErrBadGrid), but catching it
		// here keeps empty grids out of the run registry entirely.
		httpError(w, http.StatusBadRequest, "empty grid")
		return
	}
	if len(body.Points) > s.opts.MaxPoints {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("grid of %d points exceeds the %d-point limit", len(body.Points), s.opts.MaxPoints))
		return
	}
	grid := aanoc.SweepGrid{Points: make([]aanoc.Config, len(body.Points))}
	for i, p := range body.Points {
		cfg, err := p.config()
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("point %d: %v", i, err))
			return
		}
		grid.Points[i] = cfg
	}

	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if s.opts.RunTimeout > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), s.opts.RunTimeout)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		cancel()
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	s.nextID++
	id := fmt.Sprintf("run-%d", s.nextID)
	r := &run{id: id, total: len(grid.Points), cancel: cancel, changed: sync.NewCond(&s.mu)}
	s.runs[id] = r
	s.stats.Sweeps++
	s.stats.ActiveRuns++
	s.mu.Unlock()

	opts := aanoc.SweepOptions{
		Context:      ctx,
		Workers:      s.opts.Workers,
		DisableCache: body.DisableCache,
		Store:        s.opts.Store,
		// The executor serialises these calls without ordering them, so
		// the count only rises.
		OnProgress: func(done, _ int) {
			s.mu.Lock()
			r.settled = max(r.settled, done)
			s.mu.Unlock()
			r.changed.Broadcast()
		},
	}
	go s.execute(r, grid, opts)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(SweepAccepted{ID: id, Total: len(grid.Points)})
}

// execute runs one sweep to completion and finishes the run with its
// done event.
func (s *Server) execute(r *run, grid aanoc.SweepGrid, opts aanoc.SweepOptions) {
	defer r.cancel()
	results, stats, err := s.sweepFn(grid, opts)
	if err != nil {
		// Grid validation failed after admission: the wire decoder checks
		// names only, so an out-of-range value surfaces here, as the run's
		// terminal (and only) event.
		s.finish(r, Event{Type: "done", Error: err.Error()})
		return
	}
	states := make([]PointState, len(results))
	for i, res := range results {
		st := PointState{
			Index:       res.Index,
			Fingerprint: res.Fingerprint,
			Cached:      res.Cached,
			Stored:      res.Stored,
		}
		if res.Err != nil {
			st.Error = res.Err.Error()
		} else {
			st.Utilization = res.Row.Utilization
			st.LatencyAll = res.Row.LatencyAll
			st.Completed = res.Row.Completed
		}
		states[i] = st
	}
	s.finish(r, Event{Type: "done", Total: r.total, Stats: &stats, Results: states})
}

// finish folds the run's stats into the server totals, publishes its
// terminal event to every stream reader and forgets the oldest finished
// run beyond keepFinished. The totals move before the event is visible,
// so a client that has read "done" reads them updated.
func (s *Server) finish(r *run, done Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := done.Stats; st != nil {
		s.stats.Runs += st.Runs
		s.stats.Twins += st.Twins
		s.stats.CacheHits += st.CacheHits
		s.stats.StoreHits += st.StoreHits
	}
	s.stats.ActiveRuns--
	r.final = &done
	r.changed.Broadcast()

	s.finished = append(s.finished, r)
	if len(s.finished) > keepFinished {
		delete(s.runs, s.finished[0].id)
		s.finished = slices.Delete(s.finished, 0, 1)
	}
}

// getRun returns nil for an id never admitted, or since forgotten.
func (s *Server) getRun(id string) *run {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.runs[id]
}

func (s *Server) handleRunStream(w http.ResponseWriter, req *http.Request) {
	r := s.getRun(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "unknown run")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flush := http.NewResponseController(w).Flush
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the wait. Broadcasting under
	// the lock cannot fall between a reader's check of its context and the
	// start of its wait.
	ctx := req.Context()
	stop := context.AfterFunc(ctx, func() {
		s.mu.Lock()
		r.changed.Broadcast()
		s.mu.Unlock()
	})
	defer stop()

	// One progress line whenever the count has moved since the last one,
	// then the done line: counts never decrease and done is last.
	sent := 0
	for ctx.Err() == nil {
		s.mu.Lock()
		for r.settled <= sent && r.final == nil && ctx.Err() == nil {
			r.changed.Wait()
		}
		settled, final := r.settled, r.final
		s.mu.Unlock()
		if settled > sent {
			sent = settled
			if enc.Encode(Event{Type: "progress", Done: settled, Total: r.total}) != nil {
				return
			}
		}
		if final != nil {
			_ = enc.Encode(final)
		}
		_ = flush() // a writer that cannot flush still gets every line
		if final != nil {
			return
		}
	}
}

func (s *Server) handleRunCancel(w http.ResponseWriter, req *http.Request) {
	r := s.getRun(req.PathValue("id"))
	if r == nil {
		httpError(w, http.StatusNotFound, "unknown run")
		return
	}
	s.mu.Lock()
	s.stats.Cancels++
	s.mu.Unlock()
	r.cancel()
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	if s.opts.Store == nil {
		httpError(w, http.StatusServiceUnavailable, "no result store configured")
		return
	}
	fp := req.PathValue("fingerprint")
	res, ok, err := s.opts.Store.Get(fp)
	switch {
	case errors.Is(err, aanoc.ErrStoreCorrupt):
		// The entry has been removed; the next sweep re-simulates it.
		httpError(w, http.StatusInternalServerError, "stored entry failed verification and was discarded")
		return
	case err != nil:
		httpError(w, http.StatusBadRequest, err.Error())
		return
	case !ok:
		httpError(w, http.StatusNotFound, "no stored result for fingerprint")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.EncodeJSON(w, res.Obs)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// statsz is the /v1/statsz payload, and the server's one copy of its
// totals (Server.stats, under Server.mu; the store fields are filled in
// per request). SweepStats sums the done events' stats, Workers left 0.
type statsz struct {
	Requests int64 `json:"requests"`
	Sweeps   int64 `json:"sweeps"`
	SweepStats
	Cancels      int64             `json:"cancels"`
	ActiveRuns   int               `json:"activeRuns"`
	Store        *aanoc.StoreStats `json:"store,omitempty"`
	StoreVersion string            `json:"storeVersion,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := s.stats
	s.mu.Unlock()
	if s.opts.Store != nil {
		st := s.opts.Store.Stats()
		out.Store = &st
		out.StoreVersion = aanoc.StoreVersion()
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
