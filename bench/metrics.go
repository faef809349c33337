package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. BENCHMARK.json repeats these
// tables (bench_test.go holds the two in step); Bound is the share of
// the parent's median an end-to-end metric may worsen by.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports
// every one, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.06},
	{"alloc_mb_per_op", "MB", "lower", 0.06},
}

// perLayer is reported by the traced run. The first three are
// end-to-end quantities only some workloads have (a tail over >=100
// ops; error against the paper's tables), which the BENCHMARK.json
// schema can only hold here; bench -compare still gates them.
var perLayer = []metricDef{
	{"wall_p90_s", "s", "lower", 0},
	{"paper_util_ratio_err_pct", "pt", "lower", 0},
	{"paper_lat_ratio_err_pct", "pt", "lower", 0},

	{"system.new_s", "s", "lower", 0},
	{"system.run_s", "s", "lower", 0},
	{"system.finish_s", "s", "lower", 0},
	{"system.completed_requests", "count", "higher", 0},
	{"system.generated_requests", "count", "higher", 0},
	{"system.stalled_cycles", "count", "lower", 0},
	{"system.unattributed_frac", "frac", "lower", 0},

	{"sim.idle_skip_speedup", "ratio", "higher", 0},
	{"sim.ns_per_step.idle64", "ns", "lower", 0},
	{"sim.ns_per_skip", "ns", "lower", 0},

	{"noc.req_flit_hops", "count", "lower", 0},
	{"noc.resp_flit_hops", "count", "lower", 0},
	{"noc.grants", "count", "lower", 0},
	{"noc.link_util_max", "frac", "lower", 0},
	{"noc.ns_per_flit_hop.4x4", "ns", "lower", 0},
	{"noc.ns_per_flit_hop.6x6", "ns", "lower", 0},

	{"core.gss_grants", "count", "lower", 0},
	{"core.ns_per_select", "ns", "lower", 0},
	{"router.ns_per_select", "ns", "lower", 0},

	{"memctrl.cmd_cycles", "count", "lower", 0},
	{"memctrl.sink_ready_hwm", "count", "lower", 0},
	{"memctrl.ns_per_request.simple", "ns", "lower", 0},
	{"memctrl.ns_per_request.memmax", "ns", "lower", 0},
	{"memctrl.ns_per_request.dpq", "ns", "lower", 0},

	{"dram.commands", "count", "lower", 0},
	{"dram.data_cycles", "count", "higher", 0},
	{"dram.row_hit_frac", "frac", "higher", 0},
	{"dram.waste_frac", "frac", "lower", 0},
	{"dram.ns_per_probe.ddr3", "ns", "lower", 0},
	{"dram.ns_per_probe.ddr4-salp", "ns", "lower", 0},
	{"dram.ns_per_issue.ddr3", "ns", "lower", 0},
	{"dram.ns_per_issue.ddr4-salp", "ns", "lower", 0},

	{"traffic.ns_per_tick", "ns", "lower", 0},
	{"mapping.ns_per_route", "ns", "lower", 0},
	{"scenario.parse_resolve_us", "us", "lower", 0},

	{"obs.encode_us", "us", "lower", 0},
	{"obs.decode_us", "us", "lower", 0},
	{"obs.report_bytes", "bytes", "lower", 0},

	{"sweep.fingerprint_us", "us", "lower", 0},
	{"sweep.overhead_us_per_point", "us", "lower", 0},
	{"sweep.runs", "count", "lower", 0},
	{"sweep.cache_hits", "count", "higher", 0},
	{"sweep.store_hits", "count", "higher", 0},
	{"sweep.worker_busy_frac", "frac", "higher", 0},

	{"store.put_us", "us", "lower", 0},
	{"store.get_hit_us", "us", "lower", 0},
	{"store.get_miss_us", "us", "lower", 0},
	{"store.entry_bytes", "bytes", "lower", 0},
	{"store.hits", "count", "higher", 0},
	{"store.misses", "count", "lower", 0},
	{"store.corrupt", "count", "lower", 0},

	{"serve.post_ms", "ms", "lower", 0},
	{"serve.stream_ms", "ms", "lower", 0},
	{"serve.result_get_ms", "ms", "lower", 0},
	{"serve.overhead_ms", "ms", "lower", 0},
	{"serve.requests", "count", "higher", 0},

	{"check.overhead_ratio", "ratio", "lower", 0},
	{"check.violations", "count", "lower", 0},

	{"bench.trace_overhead_frac", "frac", "lower", 0},
	{"bench.spans", "count", "lower", 0},
}

// value is one reported metric: the median over its samples (or the
// single measurement; the undisturbed quartile for op times, see
// undisturbed), with the sample count and range so a reader can tell a
// median of 400 requests from one of 5 ops.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("bench: metric " + name + " is not in the metric tables")
}

// metrics collects a run's values by name.
type metrics map[string]value

// set records a single measurement.
func (m metrics) set(name string, v float64) {
	m[name] = value{Value: v, Unit: unitOf(name), Median: v, Min: v, Max: v, N: 1}
}

// samples records the median of several measurements; no samples
// records zero with n=0 (the layer did no work in this workload).
func (m metrics) samples(name string, xs []float64) {
	if len(xs) == 0 {
		m[name] = value{Unit: unitOf(name)}
		return
	}
	s := sorted(xs)
	med := medianSorted(s)
	m[name] = value{Value: med, Unit: unitOf(name), Median: med, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// undisturbed records the host time (or rate) of one op as the quartile
// on the good side of its samples: the 25th percentile of times, the
// 75th of rates, nearest rank. The ops of a run do identical work, so
// what differs between them is the machine, which only ever slows an op
// down; this sandbox has slow phases of 10-40% that last several ops,
// and they move a run's median two to three times as far as its good
// quartile. The median, min and max stay in the record.
func (m metrics) undisturbed(name string, xs []float64, better string) {
	m.samples(name, xs)
	v := m[name]
	s := sorted(xs)
	rank := int(math.Ceil(0.25 * float64(len(s))))
	if better == "higher" {
		v.Value = s[len(s)-rank]
	} else {
		v.Value = s[rank-1]
	}
	m[name] = v
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func medianSorted(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return medianSorted(sorted(xs))
}

// p90 is the nearest-rank 90th percentile. It is a tail only where at
// least ten samples lie beyond it (>=100 samples, serve-warm); on a
// handful of ops it is the slowest one, and the reported n says which.
func p90(xs []float64) float64 {
	s := sorted(xs)
	return s[int(math.Ceil(0.9*float64(len(s))))-1]
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is how
// the spread of a set of runs is judged against a bound. It needs two
// or more values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}
