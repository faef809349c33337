package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestSmoke runs every workload, untraced and traced, at 1/100 of the
// benchmark's op sizes: each must pass its output checks and report
// exactly the metrics the tables (and so BENCHMARK.json) name.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(w, options{seed: 7, seconds: 0, trace: traced, div: 100, outDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.Name, traced, err)
			}
			if !rec.Correct || rec.Attempted < 2 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failures=%v", w.Name, traced, rec.Correct, rec.Attempted, rec.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, err := contractLine(rec, defs); err != nil {
				t.Error(err)
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%t: %d metrics reported, tables name %d", w.Name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				if v, ok := rec.Metrics[d.Name]; ok && v.Unit != d.Unit {
					t.Errorf("%s: %s reported in %q, table says %q", w.Name, d.Name, v.Unit, d.Unit)
				}
			}
			if !traced {
				for _, d := range defs {
					if rec.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, rec.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// TestTracedWorkloadsDoWhatTheyClaim pins the properties each
// workload's "why" rests on, at smoke size.
func TestTracedWorkloadsDoWhatTheyClaim(t *testing.T) {
	traced := func(name string) metrics {
		w, _ := workloadByName(name)
		rec, err := run(w, options{seed: 3, trace: true, div: 100, outDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		return rec.Metrics
	}
	if m := traced("sat-conv"); m["core.gss_grants"].Value != 0 || m["noc.req_flit_hops"].Value == 0 {
		t.Errorf("sat-conv: gss grants %v (want 0), request flit hops %v (want >0)", m["core.gss_grants"].Value, m["noc.req_flit_hops"].Value)
	}
	if m := traced("tables-cold"); m["sweep.runs"].Value != tablePoints || m["store.misses"].Value != tablePoints ||
		m["paper_util_ratio_err_pct"].Value <= 0 {
		t.Errorf("tables-cold: runs %v misses %v (want %d each), paper error %v (want >0)",
			m["sweep.runs"].Value, m["store.misses"].Value, tablePoints, m["paper_util_ratio_err_pct"].Value)
	}
	if m := traced("serve-warm"); m["sweep.runs"].Value != 0 || m["store.hits"].Value != 72 || m["serve.requests"].Value != 2 {
		t.Errorf("serve-warm: runs %v (want 0), store hits %v (want 72), requests %v (want 2)",
			m["sweep.runs"].Value, m["store.hits"].Value, m["serve.requests"].Value)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON holds BENCHMARK.json and the tables in this package
// to each other, in both directions, and to the limits of its schema.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var got struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Command, []string{"go", "run", "./bench"}) || !reflect.DeepEqual(got.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", got.Command, got.Paths)
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", got.RunSeconds)
	}
	if len(got.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the package", len(got.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not letters, digits, _ . - (at most 64, starting with a letter or digit)", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the package %q (or their why differs)", i, got.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(got.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", got.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(got.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", got.PerLayer, perLayer)
	}
	setup := false
	for _, d := range endToEnd {
		unique(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !setup {
		t.Error("end_to_end has no setup_s in s, lower is better")
	}
	for _, d := range perLayer {
		unique(d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(xs, n=4), which the spread of a set is judged by.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of 1, 2 = %v, %v; Python gives 0.75, 2.25", q1, q3)
	}
	if got := p90([]float64{5, 1, 4, 2, 3}); got != 5 {
		t.Errorf("p90 of five samples = %v, want the slowest", got)
	}
}
