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
// do with the same guarantees. A grid is checked in two places: a name
// the facade parsers do not know (model, design, scheme, scheduler) is a
// 400 at POST; a value out of range (generation 9, three channels on one
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
	"net/http"
	"sync"
	"sync/atomic"
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
	// MaxBodyBytes bounds the request body (default 8 MiB).
	MaxBodyBytes int64
}

// counters aggregate across the server's lifetime; all accessed
// atomically.
type counters struct {
	requests  atomic.Int64
	sweeps    atomic.Int64
	runs      atomic.Int64
	cacheHits atomic.Int64
	storeHits atomic.Int64
	cancels   atomic.Int64
}

// Server carries the run registry and the (optional) result store. Use
// New + Handler; the zero value is not usable.
type Server struct {
	opts Options
	ctr  counters

	mu     sync.Mutex
	runs   map[string]*run
	nextID int64
	closed bool

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
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 8 << 20
	}
	return &Server{
		opts:    o,
		runs:    map[string]*run{},
		sweepFn: aanoc.Sweep,
	}
}

// Close cancels every active run. In-flight simulations abandon within
// one kernel epoch; streams drain their final line and end.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	var cancels []context.CancelFunc
	for _, r := range s.runs {
		cancels = append(cancels, r.cancel)
	}
	s.mu.Unlock()
	for _, c := range cancels {
		c()
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
		s.ctr.requests.Add(1)
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
func (p Point) config() (aanoc.Config, error) {
	var c aanoc.Config
	if p.Model != "" {
		m, err := aanoc.ParseApp(p.Model)
		if err != nil {
			return c, err
		}
		c.Model = m
	}
	if p.Design != "" {
		d, err := aanoc.ParseDesign(p.Design)
		if err != nil {
			return c, err
		}
		c.Design = d
	}
	if p.ChannelScheme != "" {
		sch, err := aanoc.ParseChannelScheme(p.ChannelScheme)
		if err != nil {
			return c, err
		}
		c.ChannelScheme = sch
	}
	sched, err := aanoc.ParseScheduler(p.Scheduler)
	if err != nil {
		return c, err
	}
	c.Scheduler = sched
	c.Generation = p.Generation
	c.ClockMHz = p.ClockMHz
	c.Channels = p.Channels
	c.PCT = p.PCT
	c.GSSRouters = p.GSSRouters
	c.PriorityDemand = p.PriorityDemand
	c.VirtualChannels = p.VirtualChannels
	c.AdaptiveRouting = p.AdaptiveRouting
	c.Cycles = p.Cycles
	c.Warmup = p.Warmup
	c.Seed = p.Seed
	c.SampleEvery = p.SampleEvery
	c.Subarrays = p.Subarrays
	c.Checked = p.Checked
	return c, nil
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

// SweepStats mirror aanoc.SweepStats on the wire.
type SweepStats struct {
	Runs      int `json:"runs"`
	CacheHits int `json:"cacheHits"`
	StoreHits int `json:"storeHits"`
	Workers   int `json:"workers"`
}

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

// run is one sweep's lifecycle: an append-only event log consumed by
// any number of stream readers, plus the cancel handle.
type run struct {
	id     string
	total  int
	cancel context.CancelFunc

	mu     sync.Mutex
	cond   *sync.Cond
	events []Event
	final  bool
}

func newRun(id string, total int, cancel context.CancelFunc) *run {
	r := &run{id: id, total: total, cancel: cancel}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// append publishes one event to every stream reader.
func (r *run) append(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	if e.Type == "done" {
		r.final = true
	}
	r.mu.Unlock()
	r.cond.Broadcast()
}

// eventsFrom blocks until events past index i exist (or the run is
// final, or ctx ends) and returns them plus whether the log is
// complete.
func (r *run) eventsFrom(ctx context.Context, i int) ([]Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for len(r.events) <= i && !r.final && ctx.Err() == nil {
		r.cond.Wait()
	}
	return r.events[i:], r.final
}

func (s *Server) handleSweep(w http.ResponseWriter, req *http.Request) {
	req.Body = http.MaxBytesReader(w, req.Body, s.opts.MaxBodyBytes)
	var body SweepRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
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
	r := newRun(id, len(grid.Points), cancel)
	s.runs[id] = r
	s.mu.Unlock()
	s.ctr.sweeps.Add(1)

	opts := aanoc.SweepOptions{
		Context:      ctx,
		Workers:      s.opts.Workers,
		DisableCache: body.DisableCache,
		Store:        s.opts.Store,
		OnProgress: func(done, total int) {
			r.append(Event{Type: "progress", Done: done, Total: total})
		},
	}
	go s.execute(r, grid, opts)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(SweepAccepted{ID: id, Total: len(grid.Points)})
}

// execute runs one sweep to completion and publishes the done event.
func (s *Server) execute(r *run, grid aanoc.SweepGrid, opts aanoc.SweepOptions) {
	defer r.cancel()
	results, stats, err := s.sweepFn(grid, opts)
	if err != nil {
		// Grid validation failed after admission: the wire decoder checks
		// names only, so an out-of-range value surfaces here, as the run's
		// terminal (and only) event.
		r.append(Event{Type: "done", Error: err.Error()})
		return
	}
	s.ctr.runs.Add(int64(stats.Runs))
	s.ctr.cacheHits.Add(int64(stats.CacheHits))
	s.ctr.storeHits.Add(int64(stats.StoreHits))
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
	r.append(Event{
		Type:  "done",
		Total: r.total,
		Stats: &SweepStats{
			Runs: stats.Runs, CacheHits: stats.CacheHits,
			StoreHits: stats.StoreHits, Workers: stats.Workers,
		},
		Results: states,
	})
}

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
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	// A disconnecting client must unblock the cond wait.
	ctx := req.Context()
	stop := context.AfterFunc(ctx, r.cond.Broadcast)
	defer stop()

	i := 0
	for {
		evs, final := r.eventsFrom(ctx, i)
		for _, e := range evs {
			if err := enc.Encode(e); err != nil {
				return
			}
		}
		i += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		// The done event is always the log's last entry, so once the
		// batch containing it is written the stream is complete.
		if final || ctx.Err() != nil {
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
	s.ctr.cancels.Add(1)
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
	case res.Obs == nil:
		httpError(w, http.StatusInternalServerError, "stored result carries no report")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.EncodeJSON(w, res.Obs)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"ok":true}`)
}

// statsz is the /v1/statsz payload.
type statsz struct {
	Requests     int64             `json:"requests"`
	Sweeps       int64             `json:"sweeps"`
	Runs         int64             `json:"runs"`
	CacheHits    int64             `json:"cacheHits"`
	StoreHits    int64             `json:"storeHits"`
	Cancels      int64             `json:"cancels"`
	ActiveRuns   int               `json:"activeRuns"`
	Store        *aanoc.StoreStats `json:"store,omitempty"`
	StoreVersion string            `json:"storeVersion,omitempty"`
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	active := 0
	for _, r := range s.runs {
		r.mu.Lock()
		if !r.final {
			active++
		}
		r.mu.Unlock()
	}
	s.mu.Unlock()
	out := statsz{
		Requests:   s.ctr.requests.Load(),
		Sweeps:     s.ctr.sweeps.Load(),
		Runs:       s.ctr.runs.Load(),
		CacheHits:  s.ctr.cacheHits.Load(),
		StoreHits:  s.ctr.storeHits.Load(),
		Cancels:    s.ctr.cancels.Load(),
		ActiveRuns: active,
	}
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
