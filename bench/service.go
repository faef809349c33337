package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"

	"aanoc"
	"aanoc/internal/obs"
	"aanoc/internal/serve"
	"aanoc/internal/store"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// service is an in-process aanoc-serve over a store that already holds
// every point of the 72-point Table I+II grid: the serve-warm workload,
// and (at a short simulated length, which a warm request's cost does
// not depend on) the probe that gives every other workload's trace its
// serve.* and store.* numbers.
type service struct {
	tr   *tracer
	st   *store.Store
	srv  *serve.Server
	ts   *httptest.Server
	body []byte
	grid aanoc.SweepGrid
	cold []sweep.Result // the sweep that populated the store
	cfgs []system.Config
}

func newService(e *env, dir string, cycles int64) (*service, error) {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	g := paperGrid(cycles, e.seed)
	cfgs := slices.Concat(g[0], g[1])
	cold, _, err := harnessSweep(e.tr, -1, cfgs, e.workers, st)
	if err != nil {
		return nil, err
	}
	s := &service{tr: e.tr, st: st, cold: cold, cfgs: cfgs}
	var req serve.SweepRequest
	for _, c := range cfgs {
		req.Points = append(req.Points, serve.Point{
			Model: c.App.Name, Design: c.Design.String(), Generation: int(c.Gen),
			PriorityDemand: c.PriorityDemand, Cycles: c.Cycles, Seed: c.Seed,
		})
		s.grid.Points = append(s.grid.Points, aanoc.Config{
			Model: aanoc.App(c.App.Name), Design: c.Design, Generation: int(c.Gen),
			PriorityDemand: c.PriorityDemand, Cycles: c.Cycles, Seed: c.Seed,
		})
	}
	if s.body, err = json.Marshal(req); err != nil {
		return nil, err
	}
	s.srv = serve.New(serve.Options{Store: st, Workers: 1})
	s.ts = httptest.NewServer(s.srv.Handler())
	return s, nil
}

func (s *service) close() {
	s.ts.Close()
	s.srv.Close()
}

// request is one client round: POST the grid, then read the run's
// NDJSON stream to its done line.
func (s *service) request(root int) (serve.Event, error) {
	var done serve.Event
	client := s.ts.Client()

	id := s.tr.begin("serve.post", root)
	resp, err := client.Post(s.ts.URL+"/v1/sweep", "application/json", bytes.NewReader(s.body))
	if err != nil {
		return done, err
	}
	var acc serve.SweepAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	s.tr.end(id)
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return done, fmt.Errorf("POST /v1/sweep: status %d: %v", resp.StatusCode, err)
	}

	id = s.tr.begin("serve.stream", root)
	defer s.tr.end(id)
	resp, err = client.Get(s.ts.URL + "/v1/runs/" + acc.ID)
	if err != nil {
		return done, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return done, fmt.Errorf("GET /v1/runs/%s: status %d", acc.ID, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev serve.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return done, fmt.Errorf("run stream: %w", err)
		}
		if ev.Type == "done" {
			return ev, nil
		}
	}
	return done, fmt.Errorf("run stream ended without a done line: %v", sc.Err())
}

// check holds a warm request to its contract: nothing simulated, every
// point served from the store, rows equal to the cold sweep's.
func (s *service) check(done serve.Event) error {
	n := len(s.cold)
	switch {
	case done.Error != "":
		return fmt.Errorf("run failed: %s", done.Error)
	case done.Stats == nil || done.Stats.Runs != 0 || done.Stats.StoreHits != n:
		return fmt.Errorf("warm request stats %+v, want runs=0 storeHits=%d", done.Stats, n)
	case len(done.Results) != n:
		return fmt.Errorf("%d result rows, want %d", len(done.Results), n)
	}
	for i, r := range done.Results {
		c := s.cold[i]
		if r.Error != "" || r.Fingerprint != c.Fingerprint || r.Utilization != c.Res.Utilization ||
			r.LatencyAll != c.Res.LatAll || r.Completed != c.Res.Completed {
			return fmt.Errorf("row %d differs from the cold sweep: %+v", i, r)
		}
	}
	return nil
}

// measure times the layers under a warm request one call at a time:
// the results endpoint, the facade sweep the handler wraps, and the
// store's read side. The results endpoint must return each cold
// report's canonical bytes.
func (s *service) measure(direct int) error {
	client := s.ts.Client()
	var want bytes.Buffer
	for _, c := range s.cold {
		id := s.tr.begin("serve.result_get", -1)
		resp, err := client.Get(s.ts.URL + "/v1/results/" + c.Fingerprint)
		if err != nil {
			return err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.tr.end(id)
		want.Reset()
		if err == nil {
			err = obs.EncodeJSON(&want, c.Res.Obs)
		}
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(got, want.Bytes()) {
			return fmt.Errorf("GET /v1/results/%s: status %d, %d bytes, want the cold report's %d: %v",
				c.Fingerprint, resp.StatusCode, len(got), want.Len(), err)
		}
	}
	for i := 0; i < direct; i++ {
		id := s.tr.begin("serve.direct_sweep", -1)
		results, stats, err := aanoc.Sweep(s.grid, aanoc.SweepOptions{Store: s.st, Workers: 1})
		s.tr.end(id)
		if err == nil {
			err = aanoc.SweepFirstErr(results)
		}
		if err != nil || stats.StoreHits != len(s.cold) {
			return fmt.Errorf("direct sweep: %+v: %v", stats, err)
		}
	}
	probe := tracedStore{s.st, s.tr, -1}
	for _, c := range s.cold {
		if _, ok, err := probe.Get(c.Fingerprint); !ok || err != nil {
			return fmt.Errorf("store.Get(%s): hit=%t: %v", c.Fingerprint, ok, err)
		}
		// The fingerprint reversed is as valid a key and is not stored.
		absent := []byte(c.Fingerprint)
		slices.Reverse(absent)
		if _, ok, err := probe.Get(string(absent)); ok || err != nil {
			return fmt.Errorf("store.Get of an absent key: hit=%t: %v", ok, err)
		}
	}
	return nil
}

// serveInst is the serve-warm workload: set-up pays for the cold sweep
// and the server start, an op is one warm request.
type serveInst struct {
	*service
	results []system.Result // the cold sweep's, which check holds every served row equal to
}

func serveSetup(e *env) (instance, error) {
	s, err := newService(e, e.tmp+"/serve", 50_000/e.div)
	if err != nil {
		return nil, err
	}
	inst := &serveInst{service: s}
	for _, c := range s.cold {
		inst.results = append(inst.results, c.Res)
	}
	return inst, nil
}

func (s *serveInst) op(root int) (opOut, error) {
	before := s.st.Stats()
	done, err := s.request(root)
	if err == nil {
		err = s.check(done)
	}
	if err != nil {
		return opOut{}, err
	}
	after := s.st.Stats()
	out := opOut{
		cycles:  int64(len(s.cold)) * s.cfgs[0].Cycles,
		results: s.results, requests: 2,
		sweep: sweep.Stats{Runs: done.Stats.Runs, CacheHits: done.Stats.CacheHits, StoreHits: done.Stats.StoreHits},
		store: store.Stats{
			Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
			Corrupt: after.Corrupt - before.Corrupt, Entries: after.Entries, SizeBytes: after.SizeBytes,
		},
	}
	// The done line does not inline reports; its rows are the op's output.
	out.encoded, err = json.Marshal(done.Results)
	return out, err
}

func (s *serveInst) slice() system.Config { return s.cfgs[0] }
