package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"time"

	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// options are one run's settings.
type options struct {
	seed    uint64
	seconds float64 // how long the timed ops last (at least minOps of them run)
	trace   bool
	div     int64  // op-size divisor: 1 is the benchmark, the smoke test uses 100
	outDir  string // where scratch directories and trace files go
}

// record is one run of one workload: a line of the -out file, and what
// -compare reads.
type record struct {
	Workload  string   `json:"workload"`
	Seed      uint64   `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"ops_attempted"`
	Failed    int      `json:"ops_failed"`
	Digest    string   `json:"digest"` // sha256 over the canonical reports of one op
	Failures  []string `json:"failures,omitempty"`
	Metrics   metrics  `json:"metrics"`
}

func (r *record) fail(err error) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
}

// digest hashes what an op returned: the canonical encoding of its
// reports, in order. The same seed must give the same bytes on every op
// of a run and on every run.
func digest(out opOut) (string, error) {
	h := sha256.New()
	h.Write(out.encoded)
	var buf bytes.Buffer
	for _, rep := range out.reports {
		buf.Reset()
		if err := obs.EncodeJSON(&buf, rep); err != nil {
			return "", err
		}
		h.Write(buf.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// run sets a workload up, warms it, times ops for o.seconds and checks
// every op's output. A set-up or warm-up failure is an error (there is
// nothing to report); a failed timed op is counted in the record. In a
// traced run every other op records spans, and the layer probes follow
// the timed ops.
func run(w workload, o options) (*record, error) {
	start := time.Now()
	tr := newTracer()
	tr.enter(o.trace, "setup", -1)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: o.seed, div: o.div, workers: workersFor(), tmp: tmp, tr: tr}
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer inst.close()

	rec := &record{Workload: w.Name, Seed: o.seed, Trace: o.trace, Metrics: metrics{}}
	for i := 0; i < max(w.warmups/int(o.div), 1); i++ {
		out, err := inst.op(-1)
		if err == nil {
			rec.Digest, err = digest(out)
		}
		if err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
		}
	}
	setup := time.Since(start)

	minOps := max(w.minOps/int(o.div), 2)
	if o.trace {
		minOps = max(minOps, 4) // two traced and two untraced at least
	}
	var plain, traced, rate, allocs, mb []float64
	var last opOut
	t0 := time.Now()
	for n := 0; n < minOps || time.Since(t0).Seconds() < o.seconds; n++ {
		spans := o.trace && n%2 == 0
		tr.enter(spans, "op", n)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		root := tr.begin(w.Name, -1)
		t := time.Now()
		out, err := inst.op(root)
		wall := time.Since(t).Seconds()
		tr.end(root)
		runtime.ReadMemStats(&m1)
		rec.Attempted++
		if err == nil {
			var d string
			if d, err = digest(out); err == nil && d != rec.Digest {
				err = fmt.Errorf("output digest %s differs from the warm-up op's %s", d, rec.Digest)
			}
		}
		if err != nil {
			rec.fail(fmt.Errorf("op %d: %w", n, err))
			continue
		}
		if spans {
			traced = append(traced, wall)
			last = out
			continue
		}
		plain = append(plain, wall)
		rate = append(rate, float64(out.cycles)/wall)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		mb = append(mb, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	if len(plain) == 0 {
		return nil, fmt.Errorf("%s: every timed op failed: %v", w.Name, rec.Failures)
	}

	m := rec.Metrics
	if !o.trace {
		m.set("setup_s", setup.Seconds())
		m.undisturbed("wall_s", plain, "lower")
		m.undisturbed("sim_cycles_per_s", rate, "higher")
		m.samples("allocs_per_op", allocs)
		m.samples("alloc_mb_per_op", mb)
	} else if len(traced) == 0 {
		return nil, fmt.Errorf("%s: every traced op failed: %v", w.Name, rec.Failures)
	} else {
		all := sorted(append(plain, traced...))
		m["wall_p90_s"] = value{Value: p90(all), Unit: "s", Median: medianSorted(all), Min: all[0], Max: all[len(all)-1], N: len(all)}
		// The fastest op of each kind is the one the machine disturbed
		// least; medians of two or three multi-second ops are mostly noise.
		m.set("bench.trace_overhead_frac", sorted(traced)[0]/sorted(plain)[0]-1)
		tr.enter(true, "probe", -1)
		if err := layers(m, e, inst, last, o); err != nil {
			rec.fail(err)
		}
		m.set("bench.spans", float64(len(tr.spans)))
		name := fmt.Sprintf("%s/trace-%s.json", o.outDir, w.Name)
		if err := tr.writeChrome(name); err != nil {
			return nil, err
		}
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// layers fills the per-layer metrics of a traced run: exact work counts
// from the last traced op's results, host time from the spans, unit
// costs from the standalone probes, and what the two together leave
// unattributed.
func layers(m metrics, e *env, inst instance, last opOut, o options) error {
	tr := e.tr
	scale := int(o.div)
	memRequests := layerCounts(m, last)
	util, lat, err := paperError(last.reports)
	if err != nil {
		return err
	}
	m.set("paper_util_ratio_err_pct", util)
	m.set("paper_lat_ratio_err_pct", lat)
	m.samples("system.new_s", tr.perOp("system.new"))
	m.samples("system.run_s", tr.perOp("system.run"))
	m.samples("system.finish_s", tr.perOp("system.finish"))

	// sweep.worker_busy_frac: the share of the workers' time the op's
	// points and store calls kept them busy.
	busy := 0.0
	var opWall time.Duration
	for _, s := range tr.spans {
		if s.Phase != "op" {
			continue
		}
		if s.owns {
			busy += s.dur().Seconds()
		} else if s.Parent < 0 {
			opWall += s.dur()
		}
	}
	if busy > 0 {
		busy /= float64(e.workers) * opWall.Seconds()
	}
	m.set("sweep.worker_busy_frac", busy)

	if err := probes(m, o.seed, scale); err != nil {
		return err
	}
	if err := reportCosts(m, last.results[0].Obs, max(200/scale, 4)); err != nil {
		return err
	}
	slice := inst.slice()
	fingerprintCost(m, slice, max(4000/scale, 16))
	cycles := slice.Cycles
	slice.Cycles = max(cycles/20, 2000)
	speedup, err := idleSkipSpeedup(slice)
	if err != nil {
		return err
	}
	m.set("sim.idle_skip_speedup", speedup)
	// Checked mode audits every cycle (about 200x on the idle workload),
	// so its slice is capped.
	slice.Cycles = min(max(cycles/10, 4000), 200_000)
	ratio, violations, err := checkedOverhead(slice)
	if err != nil {
		return err
	}
	m.set("check.overhead_ratio", ratio)
	m.set("check.violations", float64(violations))
	if violations > 0 {
		return fmt.Errorf("checked-mode slice recorded %d violations", violations)
	}

	if err := serviceLayers(m, e, inst, o); err != nil {
		return err
	}
	unattributed := 0.0
	if len(last.results) == 1 {
		unattributed = unattributedFrac(m, inst.slice(), memRequests)
	}
	m.set("system.unattributed_frac", unattributed)
	return nil
}

// serviceLayers measures the store and the server. serve-warm measures
// its own; every other workload builds the same 72-point service at a
// short simulated length (a warm request's cost does not depend on it)
// and sends it a few requests first. Spans from timed ops win over the
// probe's where the workload has them.
func serviceLayers(m metrics, e *env, inst instance, o options) error {
	reps := max(20/int(o.div), 2)
	var s *service
	if own, ok := inst.(*serveInst); ok {
		s = own.service
	} else {
		var err error
		if s, err = newService(e, e.tmp+"/probe", max(2000/o.div, 200)); err != nil {
			return err
		}
		defer s.close()
		for i := 0; i < reps; i++ {
			done, err := s.request(-1)
			if err == nil {
				err = s.check(done)
			}
			if err != nil {
				return err
			}
		}
	}
	if err := s.measure(reps); err != nil {
		return err
	}
	for _, c := range []struct {
		metric, span string
		scale        float64
	}{
		{"store.put_us", "store.put", 1e6}, {"store.get_hit_us", "store.get_hit", 1e6}, {"store.get_miss_us", "store.get_miss", 1e6},
		{"serve.post_ms", "serve.post", 1e3}, {"serve.stream_ms", "serve.stream", 1e3}, {"serve.result_get_ms", "serve.result_get", 1e3},
	} {
		xs := e.tr.durations(c.span)
		for i := range xs {
			xs[i] *= c.scale
		}
		m.samples(c.metric, xs)
	}
	m.set("serve.overhead_ms", m["serve.post_ms"].Value+m["serve.stream_ms"].Value-
		1e3*median(e.tr.durations("serve.direct_sweep")))
	st := s.st.Stats()
	m.set("store.entry_bytes", float64(st.SizeBytes)/float64(max(st.Entries, 1)))
	return nil
}

// unattributedFrac is what the outside view cannot attribute of a
// single simulation: one minus work counts times standalone unit costs
// over the time RunTo took. The controller probe drives a device, so
// dram's cost sits inside memctrl's term.
func unattributedFrac(m metrics, cfg system.Config, memRequests float64) float64 {
	hop := m["noc.ns_per_flit_hop.4x4"].Value
	if cfg.App.Width > 4 {
		hop = m["noc.ns_per_flit_hop.6x6"].Value
	}
	ctrl := m["memctrl.ns_per_request.simple"].Value
	if cfg.Design == system.Conv || cfg.Design == system.ConvPFS {
		ctrl = m["memctrl.ns_per_request.memmax"].Value
	}
	attributed := (m["noc.req_flit_hops"].Value+m["noc.resp_flit_hops"].Value)*hop +
		m["core.gss_grants"].Value*m["core.ns_per_select"].Value + memRequests*ctrl
	return 1 - attributed/(1e9*m["system.run_s"].Value)
}

// layerCounts sums the exact work counts of an op's results into the
// count metrics and returns how many request packets reached the memory
// controllers.
func layerCounts(m metrics, out opOut) (memRequests float64) {
	var completed, generated, stalled, reqHops, respHops, grants, gss, cmd, ops, data, cas, hits, beats, useful int64
	var linkMax float64
	var hwm int
	for _, res := range out.results {
		rep := res.Obs
		completed += res.Completed
		generated += res.Generated
		stalled += rep.Stalled
		reqHops += rep.Network.Request.BusyCycles
		respHops += rep.Network.Response.BusyCycles
		for _, mesh := range []obs.MeshStats{rep.Network.Request, rep.Network.Response} {
			for _, l := range mesh.Links {
				grants += l.Grants
				linkMax = max(linkMax, l.Utilization)
			}
		}
		// Only memory ports eject from the request mesh, so its local
		// outputs grant one packet per request a controller receives.
		for _, l := range rep.Network.Request.Links {
			if l.Port == "local" {
				memRequests += float64(l.Grants)
			}
		}
		gss += res.GSSGrants
		cmd += res.CmdCycles
		hwm = max(hwm, rep.Memory.SinkReadyHWM)
		d := res.Device
		ops += d.Activates + d.Reads + d.Writes + d.Precharges + d.AutoPre + d.Refreshes
		data += d.DataCycles
		cas += d.Reads + d.Writes
		beats += d.BurstsBL
		useful += d.UsefulBeats
		for _, b := range rep.Memory.Banks {
			hits += b.RowHits
		}
	}
	frac := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m.set("system.completed_requests", float64(completed))
	m.set("system.generated_requests", float64(generated))
	m.set("system.stalled_cycles", float64(stalled))
	m.set("noc.req_flit_hops", float64(reqHops))
	m.set("noc.resp_flit_hops", float64(respHops))
	m.set("noc.grants", float64(grants))
	m.set("noc.link_util_max", linkMax)
	m.set("core.gss_grants", float64(gss))
	m.set("memctrl.cmd_cycles", float64(cmd))
	m.set("memctrl.sink_ready_hwm", float64(hwm))
	m.set("dram.commands", float64(ops))
	m.set("dram.data_cycles", float64(data))
	m.set("dram.row_hit_frac", frac(hits, cas))
	m.set("dram.waste_frac", frac(beats-useful, beats))
	m.set("sweep.runs", float64(out.sweep.Runs))
	m.set("sweep.cache_hits", float64(out.sweep.CacheHits))
	m.set("sweep.store_hits", float64(out.sweep.StoreHits))
	m.set("store.hits", float64(out.store.Hits))
	m.set("store.misses", float64(out.store.Misses))
	m.set("store.corrupt", float64(out.store.Corrupt))
	m.set("serve.requests", float64(out.requests))
	return memRequests
}
