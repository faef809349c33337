package main

import (
	"bytes"
	"strings"
	"testing"
)

// synthetic builds three runs of every workload whose end-to-end
// metrics are base scaled by slow (host time) and 1/slow (rate), with
// the given run-to-run wobble.
func synthetic(slow, wobble float64) []record {
	var recs []record
	for _, w := range workloads {
		for run, k := range []float64{1 - wobble, 1, 1 + wobble} {
			m := metrics{}
			m.set("setup_s", 2*k)
			m.set("wall_s", 2*slow*k)
			m.set("sim_cycles_per_s", 1e6/(slow*k))
			m.set("allocs_per_op", 200_000)
			m.set("alloc_mb_per_op", 22)
			recs = append(recs, record{Workload: w.Name, Seed: uint64(run), Correct: true, Attempted: 5, Metrics: m})
		}
	}
	return recs
}

// testSpec gates at 10% whatever BENCHMARK.json's bounds are today.
func testSpec() spec {
	var sp spec
	for _, d := range endToEnd {
		d.Bound = 0.10
		sp.EndToEnd = append(sp.EndToEnd, d)
	}
	for _, w := range workloads {
		sp.Workloads = append(sp.Workloads, struct {
			Name string `json:"name"`
		}{w.Name})
	}
	return sp
}

func TestCompare(t *testing.T) {
	parent := synthetic(1, 0.01)
	for _, c := range []struct {
		name   string
		change []record
		pass   bool
		want   string
		never  string
	}{
		{"same", synthetic(1, 0.01), true, "PASS", "REGRESSED"},
		{"3% slower passes", synthetic(1.03, 0.01), true, "PASS", "REGRESSED"},
		{"20% slower fails", synthetic(1.20, 0.01), false, "REGRESSED", "UNRESOLVED"},
		{"20% faster passes", synthetic(0.80, 0.01), true, "PASS", "REGRESSED"},
		{"noisy runs are unresolved, not passed", synthetic(1.03, 0.30), true, "UNRESOLVED", "REGRESSED"},
	} {
		var out bytes.Buffer
		if got := compareRecords(&out, testSpec(), parent, c.change); got != c.pass {
			t.Errorf("%s: pass=%t, want %t\n%s", c.name, got, c.pass, out.String())
		}
		if !strings.Contains(out.String(), c.want) || strings.Contains(out.String(), c.never) {
			t.Errorf("%s: want a %s row and no %s row\n%s", c.name, c.want, c.never, out.String())
		}
	}
}

func TestCompareFailedOpsAndAccuracy(t *testing.T) {
	parent, change := synthetic(1, 0.01), synthetic(1, 0.01)
	change[0].Failed = 1
	var out bytes.Buffer
	if compareRecords(&out, testSpec(), parent, change) {
		t.Errorf("a higher share of failed ops passed\n%s", out.String())
	}

	parent, change = synthetic(1, 0.01), synthetic(1, 0.01)
	for i, v := range []float64{8.50, 8.56, 8.54} {
		parent[12+i].Metrics.set("paper_util_ratio_err_pct", 8.50)
		change[12+i].Metrics.set("paper_util_ratio_err_pct", v)
	}
	out.Reset()
	if !compareRecords(&out, testSpec(), parent, change) {
		t.Errorf("an accuracy change of 0.04 pt failed\n%s", out.String())
	}
	change[12].Metrics.set("paper_util_ratio_err_pct", 8.58)
	out.Reset()
	if compareRecords(&out, testSpec(), parent, change) {
		t.Errorf("an accuracy loss of 0.06 pt passed\n%s", out.String())
	}

	out.Reset()
	if compareRecords(&out, testSpec(), parent[3:], change) {
		t.Errorf("a workload missing from the parent passed\n%s", out.String())
	}
}
