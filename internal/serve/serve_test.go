package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"aanoc"
)

// post starts a sweep over the test server and returns the accepted
// run descriptor.
func post(t *testing.T, ts *httptest.Server, body string) SweepAccepted {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST /v1/sweep = %d (%v)", resp.StatusCode, e)
	}
	var acc SweepAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

// stream reads a run's NDJSON to completion and returns the events.
func stream(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	events, err := readStream(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

// readStream is stream for use off the test's goroutine.
func readStream(ts *httptest.Server, id string) ([]Event, error) {
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/runs/%s = %d", id, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return nil, fmt.Errorf("stream content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return nil, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, e)
	}
	return events, sc.Err()
}

// last returns the stream's terminal event, asserting there is exactly
// one and it is last.
func last(t *testing.T, events []Event) Event {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	for i, e := range events[:len(events)-1] {
		if e.Type == "done" {
			t.Fatalf("done event at %d of %d, want last", i, len(events))
		}
	}
	fin := events[len(events)-1]
	if fin.Type != "done" {
		t.Fatalf("stream ended with %q, want done", fin.Type)
	}
	return fin
}

// fastServer builds a server whose sweepFn runs the real facade over
// tiny grids (2000-cycle points are a few ms each).
func fastServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(o)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

const tinyGrid = `{"points":[
  {"design":"gss+sagm","model":"bluray","cycles":2000,"seed":1},
  {"design":"gss+sagm","model":"bluray","cycles":2000,"seed":2},
  {"design":"gss+sagm","model":"bluray","cycles":2000,"seed":1}
]}`

func TestSweepLifecycle(t *testing.T) {
	store, err := aanoc.OpenStore(t.TempDir(), aanoc.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := fastServer(t, Options{Store: store})

	acc := post(t, ts, tinyGrid)
	if acc.Total != 3 || acc.ID == "" {
		t.Fatalf("accepted %+v", acc)
	}
	fin := last(t, stream(t, ts, acc.ID))
	if fin.Stats == nil || fin.Stats.Runs != 2 || fin.Stats.CacheHits != 1 {
		t.Fatalf("first sweep stats %+v, want 2 runs + 1 cache hit", fin.Stats)
	}
	if len(fin.Results) != 3 {
		t.Fatalf("%d results, want 3", len(fin.Results))
	}
	var fp string
	for _, r := range fin.Results {
		if r.Error != "" || r.Fingerprint == "" || r.Completed == 0 {
			t.Fatalf("bad point state %+v", r)
		}
		fp = r.Fingerprint
	}
	// The done line's headline numbers are the runs' own: those a direct
	// aanoc.Sweep of the same wire grid returns.
	want := directSweep(t, tinyGrid)
	sameHeadlines := func(sweep string, got []PointState) {
		t.Helper()
		for i, r := range got {
			w := want[i].Res
			if r.Utilization != w.Utilization || r.LatencyAll != w.LatAll || r.Completed != w.Completed {
				t.Errorf("%s sweep, point %d: utilization %v, latencyAll %v, completed %d; aanoc.Sweep has %v, %v, %d",
					sweep, i, r.Utilization, r.LatencyAll, r.Completed, w.Utilization, w.LatAll, w.Completed)
			}
		}
	}
	sameHeadlines("first", fin.Results)

	// Same grid again: everything must come from the store, nothing
	// simulates.
	acc = post(t, ts, tinyGrid)
	fin = last(t, stream(t, ts, acc.ID))
	if fin.Stats.Runs != 0 || fin.Stats.StoreHits != 2 {
		t.Fatalf("second sweep stats %+v, want zero runs", fin.Stats)
	}
	for _, r := range fin.Results {
		if !r.Stored {
			t.Fatalf("second-sweep point not stored: %+v", r)
		}
	}
	sameHeadlines("store-served", fin.Results)

	// The stored observability report is retrievable by fingerprint.
	resp, err := http.Get(ts.URL + "/v1/results/" + fp)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/results = %d", resp.StatusCode)
	}
	var report struct {
		SchemaVersion int    `json:"schemaVersion"`
		Design        string `json:"design"`
		Cycles        int64  `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&report); err != nil {
		t.Fatal(err)
	}
	if report.SchemaVersion == 0 || report.Design == "" || report.Cycles != 2000 {
		t.Fatalf("stored report %+v", report)
	}

	// A run stream stays replayable after completion.
	if fin2 := last(t, stream(t, ts, acc.ID)); fin2.Stats.StoreHits != fin.Stats.StoreHits {
		t.Error("replayed stream diverges")
	}
}

// directSweep runs a wire grid through aanoc.Sweep without the server
// or a store: the points decoded as handleSweep decodes them.
func directSweep(t *testing.T, body string) []aanoc.SweepResult {
	t.Helper()
	var req SweepRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	var grid aanoc.SweepGrid
	for _, p := range req.Points {
		c, err := p.config()
		if err != nil {
			t.Fatal(err)
		}
		grid.Points = append(grid.Points, c)
	}
	results, _, err := aanoc.Sweep(grid, aanoc.SweepOptions{})
	if err == nil {
		err = aanoc.SweepFirstErr(results)
	}
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// strictBodies are sweep bodies that are not exactly one request: a
// misspelt point key, a misspelt top-level key, trailing garbage and a
// second value. Each must be refused whole — the first three used to run
// the grid with the unknown part dropped.
var strictBodies = []string{
	`{"points":[{"desing":"gss"}]}`,
	`{"pionts":[{"design":"gss"}]}`,
	`{"points":[{"design":"gss"}]} x`,
	`{"points":[{"design":"gss"}]}{"points":[{"design":"gss"}]}`,
}

func TestSweepRejectsBadInput(t *testing.T) {
	_, ts := fastServer(t, Options{})
	cases := []struct {
		name, body string
		status     int
		says       string // a fragment of the error message
	}{
		{"malformed json", `{"points":`, http.StatusBadRequest, "malformed request"},
		{"empty grid", `{"points":[]}`, http.StatusBadRequest, "empty grid"},
		{"unknown design", `{"points":[{"design":"warp-drive"}]}`, http.StatusBadRequest, "warp-drive"},
		{"unknown model", `{"points":[{"model":"quake"}]}`, http.StatusBadRequest, "quake"},
		{"bad scheduler", `{"points":[{"scheduler":"fifo9000"}]}`, http.StatusBadRequest, "fifo9000"},
		{"misspelt point key", strictBodies[0], http.StatusBadRequest, `unknown field "desing"`},
		{"misspelt top-level key", strictBodies[1], http.StatusBadRequest, `unknown field "pionts"`},
		{"trailing garbage", strictBodies[2], http.StatusBadRequest, "trailing data"},
		{"second value", strictBodies[3], http.StatusBadRequest, "trailing data"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var e map[string]string
			_ = json.NewDecoder(resp.Body).Decode(&e)
			if resp.StatusCode != tc.status || !strings.Contains(e["error"], tc.says) {
				t.Errorf("status %d (%q), want %d naming %q", resp.StatusCode, e["error"], tc.status, tc.says)
			}
		})
	}
	// Nothing above was admitted.
	if st := getStatsz(t, ts); st.Sweeps != 0 || st.ActiveRuns != 0 {
		t.Errorf("statsz %+v after refused bodies only, want no sweeps", st)
	}

	// The wire decoder checks names only: a value out of range is admitted
	// and rejected by aanoc.Sweep's validation pass, before anything
	// simulates — the run's one event carries the grid error and no stats.
	for _, body := range []string{
		`{"points":[{"generation":9}]}`,
		`{"points":[{"channels":3}]}`,
		`{"points":[{"cycles":-5}]}`,
		`{"points":[{"virtualChannels":9}]}`,
		`{"points":[{"clockMHz":123}]}`,
		`{"points":[{"pct":9}]}`,
		`{"points":[{"gssRouters":-7}]}`,
	} {
		t.Run(body, func(t *testing.T) {
			events := stream(t, ts, post(t, ts, body).ID)
			fin := last(t, events)
			if len(events) != 1 || fin.Stats != nil || !strings.Contains(fin.Error, "invalid sweep grid: point 0") {
				t.Errorf("events %+v, want one done event with the grid error and no stats", events)
			}
		})
	}
	if st := getStatsz(t, ts); st.Runs != 0 {
		t.Errorf("statsz counts %d runs for grids that never built", st.Runs)
	}
}

// TestStatszCountsTwins: the server's totals sum the done events'
// stats, twins included, so statsz tells how many simulations ran
// (runs - twins). A [4] point and a GSS point of one platform share one
// canonical run: two runs, one of them a twin's.
func TestStatszCountsTwins(t *testing.T) {
	_, ts := fastServer(t, Options{})
	acc := post(t, ts, `{"points":[
  {"design":"[4]","model":"bluray","cycles":2000},
  {"design":"gss","model":"bluray","cycles":2000}
]}`)
	if fin := last(t, stream(t, ts, acc.ID)); fin.Stats == nil || fin.Stats.Runs != 2 || fin.Stats.Twins != 1 {
		t.Fatalf("done stats %+v, want 2 runs, 1 twin", fin.Stats)
	}
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st["runs"] != 2.0 || st["twins"] != 1.0 {
		t.Errorf("statsz runs %v, twins %v, want 2 and 1", st["runs"], st["twins"])
	}
	if w, ok := st["workers"]; ok {
		t.Errorf("statsz carries a per-call workers %v", w)
	}
}

// getStatsz reads /v1/statsz.
func getStatsz(t *testing.T, ts *httptest.Server) statsz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestEmptyGridRejectedBeforeAdmission(t *testing.T) {
	s, ts := fastServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"points":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty grid accepted: %d", resp.StatusCode)
	}
	s.mu.Lock()
	n := len(s.runs)
	s.mu.Unlock()
	if n != 0 {
		t.Errorf("empty grid registered a run")
	}
}

func TestGridSizeLimit(t *testing.T) {
	_, ts := fastServer(t, Options{MaxPoints: 2})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tinyGrid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("3-point grid on a 2-point server: %d", resp.StatusCode)
	}
}

func TestUnknownRunAndResult(t *testing.T) {
	store, err := aanoc.OpenStore(t.TempDir(), aanoc.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := fastServer(t, Options{Store: store})
	for _, path := range []string{
		"/v1/runs/run-999",
		"/v1/results/" + strings.Repeat("a", 64),
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	// Malformed fingerprints (including traversal attempts) are 400.
	resp, err := http.Get(ts.URL + "/v1/results/..%2f..%2fetc%2fpasswd")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed fingerprint = %d, want 400", resp.StatusCode)
	}
}

func TestResultsWithoutStore(t *testing.T) {
	_, ts := fastServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("a", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("store-less results = %d, want 503", resp.StatusCode)
	}
}

// TestMidSweepCancellation drives a slow fake sweep and cancels it
// mid-flight via DELETE: the stream must terminate with a done event
// whose unfinished points carry the cancellation error.
func TestMidSweepCancellation(t *testing.T) {
	s, ts := fastServer(t, Options{})
	started := make(chan struct{})
	s.sweepFn = func(g aanoc.SweepGrid, o aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error) {
		results := make([]aanoc.SweepResult, len(g.Points))
		for i := range g.Points {
			if i == 0 {
				close(started)
			}
			select {
			case <-o.Context.Done():
				results[i] = aanoc.SweepResult{Index: i, Err: o.Context.Err()}
				continue
			case <-time.After(5 * time.Second):
				results[i] = aanoc.SweepResult{Index: i}
			}
			if o.OnProgress != nil {
				o.OnProgress(i+1, len(g.Points))
			}
		}
		return results, aanoc.SweepStats{Workers: 1}, nil
	}

	acc := post(t, ts, tinyGrid)
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+acc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	fin := last(t, stream(t, ts, acc.ID))
	if time.Now().After(deadline) {
		t.Fatal("cancelled stream did not terminate promptly")
	}
	cancelled := 0
	for _, r := range fin.Results {
		if strings.Contains(r.Error, context.Canceled.Error()) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatalf("no point reports cancellation: %+v", fin.Results)
	}
}

// TestRealSweepCancellation cancels an actual simulation grid: the
// real executor must settle every point and end the stream.
func TestRealSweepCancellation(t *testing.T) {
	_, ts := fastServer(t, Options{Workers: 1})
	// Enough cycles that the grid cannot finish before the DELETE lands.
	grid := `{"points":[` + strings.Repeat(`{"design":"gss+sagm","cycles":2000000,"seed":1},`, 3) +
		`{"design":"gss+sagm","cycles":2000000,"seed":2}]}`
	acc := post(t, ts, grid)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+acc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := make(chan []Event, 1)
	go func() { done <- stream(t, ts, acc.ID) }()
	select {
	case events := <-done:
		fin := last(t, events)
		for _, r := range fin.Results {
			if r.Error == "" && r.Completed == 0 && !r.Cached {
				t.Errorf("point %d neither completed nor errored: %+v", r.Index, r)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled real sweep never finished")
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	store, err := aanoc.OpenStore(t.TempDir(), aanoc.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := fastServer(t, Options{Store: store})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	acc := post(t, ts, tinyGrid)
	last(t, stream(t, ts, acc.ID))

	resp, err = http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Sweeps != 1 || st.Runs != 2 || st.CacheHits != 1 || st.ActiveRuns != 0 {
		t.Errorf("statsz %+v", st)
	}
	if st.Store == nil || st.Store.Puts != 2 || st.StoreVersion == "" {
		t.Errorf("store statsz %+v / %q", st.Store, st.StoreVersion)
	}
}

func TestShutdownRejectsNewSweeps(t *testing.T) {
	s, ts := fastServer(t, Options{})
	s.Close()
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(tinyGrid))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown sweep = %d, want 503", resp.StatusCode)
	}
}

func TestRunTimeout(t *testing.T) {
	s, ts := fastServer(t, Options{RunTimeout: 50 * time.Millisecond})
	s.sweepFn = func(g aanoc.SweepGrid, o aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error) {
		<-o.Context.Done()
		results := make([]aanoc.SweepResult, len(g.Points))
		for i := range results {
			results[i] = aanoc.SweepResult{Index: i, Err: o.Context.Err()}
		}
		return results, aanoc.SweepStats{}, nil
	}
	acc := post(t, ts, tinyGrid)
	fin := last(t, stream(t, ts, acc.ID))
	for _, r := range fin.Results {
		if !strings.Contains(r.Error, context.DeadlineExceeded.Error()) {
			t.Fatalf("point %d error %q, want deadline", r.Index, r.Error)
		}
	}
}

// TestEmptyGridFacadeErrorSurfaces drives the facade-level validation
// error path through a sweepFn returning ErrBadGrid.
func TestEmptyGridFacadeErrorSurfaces(t *testing.T) {
	s, ts := fastServer(t, Options{})
	s.sweepFn = func(g aanoc.SweepGrid, o aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error) {
		return nil, aanoc.SweepStats{}, fmt.Errorf("aanoc: %w: no points", aanoc.ErrBadGrid)
	}
	acc := post(t, ts, tinyGrid)
	fin := last(t, stream(t, ts, acc.ID))
	if fin.Error == "" || !strings.Contains(fin.Error, "invalid sweep grid") {
		t.Fatalf("facade error lost: %+v", fin)
	}
}

// stubSweep settles every point at once, reporting progress per point;
// a grid whose first point has seed 99 first waits for hold to close.
func stubSweep(hold <-chan struct{}) func(aanoc.SweepGrid, aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error) {
	return func(g aanoc.SweepGrid, o aanoc.SweepOptions) ([]aanoc.SweepResult, aanoc.SweepStats, error) {
		if g.Points[0].Seed == 99 {
			<-hold
		}
		results := make([]aanoc.SweepResult, len(g.Points))
		for i := range results {
			results[i] = aanoc.SweepResult{Index: i}
			o.OnProgress(i+1, len(g.Points))
		}
		return results, aanoc.SweepStats{Runs: len(g.Points), Workers: 1}, nil
	}
}

// TestRunRegistryBounded: the registry holds every active run and the
// last keepFinished to finish.
func TestRunRegistryBounded(t *testing.T) {
	s, ts := fastServer(t, Options{})
	hold := make(chan struct{})
	s.sweepFn = stubSweep(hold)
	registered := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.runs)
	}

	held := post(t, ts, `{"points":[{"seed":99}]}`).ID
	const n = keepFinished + 44
	ids := make([]string, n)
	for i := range ids {
		ids[i] = post(t, ts, `{"points":[{"seed":1}]}`).ID
		last(t, stream(t, ts, ids[i]))
	}
	if got := registered(); got != keepFinished+1 {
		t.Errorf("%d runs registered after %d finished beside one active, want %d", got, n, keepFinished+1)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/runs/"+ids[0], nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s on the oldest finished run = %d, want 404", method, resp.StatusCode)
		}
	}
	if fin := last(t, stream(t, ts, ids[n-1])); fin.Stats == nil || fin.Stats.Runs != 1 {
		t.Errorf("newest finished run's done line %+v", fin)
	}

	// The run admitted before all of them is still executing, so it was
	// never a candidate; once it finishes it is the newest finished.
	if s.getRun(held) == nil {
		t.Fatal("an active run was forgotten")
	}
	if st := getStatsz(t, ts); st.ActiveRuns != 1 || st.Sweeps != n+1 || st.Runs != n {
		t.Errorf("statsz %+v, want 1 active of %d sweeps", st, n+1)
	}
	close(hold)
	last(t, stream(t, ts, held))
	if got := registered(); got != keepFinished {
		t.Errorf("%d runs registered with none active, want %d", got, keepFinished)
	}
}

// TestLateReaderCoalesces: a reader is told the latest count, not every
// count. One that connects after completion gets at most one progress
// line; concurrent readers each see non-decreasing counts and end on
// the one done line.
func TestLateReaderCoalesces(t *testing.T) {
	s, ts := fastServer(t, Options{})
	hold := make(chan struct{})
	s.sweepFn = stubSweep(hold)
	body := `{"points":[{"seed":99}` + strings.Repeat(`,{"seed":1}`, 9) + `]}`

	acc := post(t, ts, body)
	type read struct {
		events []Event
		err    error
	}
	readers := make(chan read, 2)
	for range 2 {
		go func() {
			events, err := readStream(ts, acc.ID)
			readers <- read{events, err}
		}()
	}
	close(hold)
	for range 2 {
		r := <-readers
		if r.err != nil {
			t.Fatal(r.err)
		}
		events := r.events
		fin := last(t, events)
		if fin.Total != 10 || len(fin.Results) != 10 {
			t.Errorf("done line %+v, want 10 results", fin)
		}
		seen := 0
		for _, e := range events[:len(events)-1] {
			if e.Type != "progress" || e.Done <= seen || e.Done > 10 || e.Total != 10 {
				t.Errorf("progress line %+v after done=%d", e, seen)
			}
			seen = e.Done
		}
	}

	late := stream(t, ts, acc.ID)
	last(t, late)
	if len(late) != 2 || late[0].Type != "progress" || late[0].Done != 10 {
		t.Errorf("late reader got %+v, want one progress line at 10 and the done line", late)
	}
}
