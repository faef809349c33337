// Package stats collects the paper's evaluation metrics: per-class memory
// request latencies (mean, max, percentiles via logarithmic histogram) and
// derived utilization figures.
package stats

import (
	"math"
	"math/bits"
)

// Latency accumulates request latencies with a power-of-two histogram so
// percentiles are available without storing samples.
type Latency struct {
	Count int64
	Sum   int64
	Max   int64
	// buckets[i] counts samples with latency in [2^i, 2^(i+1)).
	buckets [40]int64
}

// Add records one sample.
func (l *Latency) Add(v int64) {
	if v < 0 {
		v = 0
	}
	l.Count++
	l.Sum += v
	if v > l.Max {
		l.Max = v
	}
	l.buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v)) - 1
	if b >= len(Latency{}.buckets) {
		b = len(Latency{}.buckets) - 1
	}
	return b
}

// Mean returns the average latency, 0 when empty.
func (l *Latency) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Percentile returns an upper bound on the p-th percentile (p in [0,100])
// at histogram-bucket resolution. The rank is the nearest-rank ceiling,
// ceil(count*p/100), so P95 over 10 samples targets the 10th sample, not
// the 9th — truncation would silently report one bucket low on small
// counts. The bucket upper bound is clamped to the observed Max: every
// sample in the top occupied bucket is at most Max, so a raw bound above
// it (all samples equal to 5 reporting P99 = 7 against Max = 5) would be
// internally inconsistent with the accumulator's own exact maximum.
func (l *Latency) Percentile(p float64) int64 {
	if l.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(float64(l.Count) * p / 100.0))
	if target < 1 {
		target = 1
	}
	if target > l.Count {
		target = l.Count
	}
	var seen int64
	for i, n := range l.buckets {
		seen += n
		if seen >= target {
			b := (int64(1) << uint(i+1)) - 1
			if b > l.Max {
				b = l.Max
			}
			return b
		}
	}
	return l.Max
}

// Summary is the serialisable digest of one Latency accumulator: the
// fields the observability report exports per request class. Percentiles
// are the accumulator's histogram upper bounds.
type Summary struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// Summarize digests the accumulator into its exportable form.
func (l *Latency) Summarize() Summary {
	return Summary{
		Count: l.Count,
		Mean:  l.Mean(),
		P50:   l.Percentile(50),
		P95:   l.Percentile(95),
		P99:   l.Percentile(99),
		Max:   l.Max,
	}
}

// Metrics holds one simulation run's latency samples in the paper's
// three latency columns plus supporting detail; the request and stall
// counts are the system's cores' own.
type Metrics struct {
	All      Latency // every logical request
	Demand   Latency // ClassDemand requests (the paper's "demand packet" column)
	Priority Latency // requests flagged priority (== Demand in Table II runs)
	Best     Latency // best-effort requests

	Reads  Latency
	Writes Latency

	// SourceLatency measures generation-to-completion (including the
	// network-interface queue); the primary latencies measure from
	// network entry, which is what an RTL NoC testbench observes.
	SourceLatency Latency
}

// Record adds one completed logical request's latency sample.
func (m *Metrics) Record(latency int64, demand, priority, read bool) {
	m.All.Add(latency)
	if demand {
		m.Demand.Add(latency)
	}
	if priority {
		m.Priority.Add(latency)
	}
	if !priority {
		m.Best.Add(latency)
	}
	if read {
		m.Reads.Add(latency)
	} else {
		m.Writes.Add(latency)
	}
}
