package stats

import (
	"testing"
	"testing/quick"
)

func TestLatencyBasics(t *testing.T) {
	var l Latency
	if l.Mean() != 0 || l.Percentile(95) != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	for _, v := range []int64{10, 20, 30} {
		l.Add(v)
	}
	if l.Count != 3 || l.Sum != 60 || l.Max != 30 {
		t.Fatalf("accumulator state: %+v", l)
	}
	if l.Mean() != 20 {
		t.Errorf("mean = %v, want 20", l.Mean())
	}
}

func TestLatencyNegativeClamped(t *testing.T) {
	var l Latency
	l.Add(-5)
	if l.Sum != 0 || l.Count != 1 {
		t.Fatalf("negative sample mishandled: %+v", l)
	}
}

func TestPercentileBoundsSamples(t *testing.T) {
	var l Latency
	for i := int64(1); i <= 1000; i++ {
		l.Add(i)
	}
	p50 := l.Percentile(50)
	p99 := l.Percentile(99)
	if p50 < 500 {
		t.Errorf("p50 upper bound %d below true median 500", p50)
	}
	if p99 < 990 {
		t.Errorf("p99 upper bound %d below true p99", p99)
	}
	if p99 > 2048 {
		t.Errorf("p99 bound %d too loose for max 1000", p99)
	}
}

func TestMetricsRecordRouting(t *testing.T) {
	var m Metrics
	m.Record(100, true, true, true)   // demand, priority, read
	m.Record(50, false, false, false) // best-effort write
	if m.All.Count != 2 || m.Demand.Count != 1 || m.Priority.Count != 1 {
		t.Fatalf("routing broken: %+v", m)
	}
	if m.Best.Count != 1 || m.Reads.Count != 1 || m.Writes.Count != 1 {
		t.Fatalf("class split broken: %+v", m)
	}
}

// TestPercentileCeilingRank pins the nearest-rank-ceiling contract on
// small counts and exact powers of two, where the old truncating rank
// silently targeted one sample too low (P95 of 10 samples must bound the
// 10th sample, not the 9th). Samples are chosen one per histogram bucket
// (powers of two) so each rank maps to a distinct bucket bound. Bounds
// targeting the top occupied bucket clamp to the exact Max (the largest
// sample, 2^(samples-1)) rather than the looser raw bucket ceiling.
func TestPercentileCeilingRank(t *testing.T) {
	cases := []struct {
		name    string
		samples int // samples: 2^0, 2^1, ..., 2^(samples-1)
		p       float64
		rank    int // 0-based index of the targeted sample
	}{
		{"p95 of 10 targets the 10th", 10, 95, 9},
		{"p50 of 10 targets the 5th", 10, 50, 4},
		{"p99 of 10 targets the 10th", 10, 99, 9},
		{"p95 of 2 targets the 2nd", 2, 95, 1},
		{"p50 of 1 targets the 1st", 1, 50, 0},
		{"p25 of 4 targets the 1st (exact rank)", 4, 25, 0},
		{"p50 of 8 targets the 4th (exact rank)", 8, 50, 3},
		{"p75 of 8 targets the 6th (exact rank)", 8, 75, 5},
		{"p95 of 16 targets the 16th (ceil 15.2)", 16, 95, 15},
		{"p100 of 16 targets the 16th", 16, 100, 15},
		{"p0 clamps to the 1st", 16, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var l Latency
			for i := 0; i < tc.samples; i++ {
				l.Add(int64(1) << uint(i))
			}
			// The histogram upper bound of the targeted sample 2^rank,
			// clamped to the accumulator's exact maximum.
			want := (int64(1) << uint(tc.rank+1)) - 1
			if max := int64(1) << uint(tc.samples-1); want > max {
				want = max
			}
			if got := l.Percentile(tc.p); got != want {
				t.Errorf("Percentile(%v) over %d samples = %d, want %d",
					tc.p, tc.samples, got, want)
			}
		})
	}
}

// TestPercentileClampedToMax is the regression test for the bucket-bound
// overshoot: a histogram whose samples all share one bucket (or one
// value) must never report a percentile above its own Max.
func TestPercentileClampedToMax(t *testing.T) {
	t.Run("all-equal", func(t *testing.T) {
		var l Latency
		for i := 0; i < 100; i++ {
			l.Add(5)
		}
		for _, p := range []float64{0, 50, 95, 99, 100} {
			if got := l.Percentile(p); got != 5 {
				t.Errorf("Percentile(%v) = %d over 100 samples of 5, want exactly 5", p, got)
			}
		}
	})
	t.Run("single-bucket", func(t *testing.T) {
		// 4, 5, 6 all land in bucket [4,8) whose raw upper bound is 7.
		var l Latency
		for _, v := range []int64{4, 5, 6} {
			l.Add(v)
		}
		if got := l.Percentile(99); got != l.Max {
			t.Errorf("P99 = %d exceeds Max = %d", got, l.Max)
		}
		if l.Max != 6 {
			t.Fatalf("Max = %d, want 6", l.Max)
		}
	})
	t.Run("lower-bucket-unclamped", func(t *testing.T) {
		// The clamp applies per result, not per histogram: a low
		// percentile in a non-top bucket keeps its bucket bound.
		var l Latency
		for i := 0; i < 99; i++ {
			l.Add(2) // bucket [2,4), bound 3
		}
		l.Add(1000)
		if got := l.Percentile(50); got != 3 {
			t.Errorf("P50 = %d, want the untouched bucket bound 3", got)
		}
		if got := l.Percentile(100); got != 1000 {
			t.Errorf("P100 = %d, want the exact max 1000", got)
		}
	})
}

func TestSummarize(t *testing.T) {
	var l Latency
	for i := int64(1); i <= 100; i++ {
		l.Add(i)
	}
	s := l.Summarize()
	if s.Count != 100 || s.Mean != 50.5 || s.Max != 100 {
		t.Fatalf("summary basics: %+v", s)
	}
	if s.P50 < 50 || s.P95 < 95 || s.P99 < 99 {
		t.Errorf("summary percentiles undercut true values: %+v", s)
	}
}

func TestPropertyPercentileIsUpperBound(t *testing.T) {
	// The histogram percentile must never undercut the true percentile.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		var l Latency
		max := int64(0)
		for _, v := range raw {
			l.Add(int64(v))
			if int64(v) > max {
				max = int64(v)
			}
		}
		return l.Percentile(100) >= max && l.Mean() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
