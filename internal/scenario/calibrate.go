package scenario

import (
	"fmt"
	"math"
	"slices"

	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/traffic"
)

// The statistical-calibration tolerances. They are seeded-run
// tolerances: wide enough that a correct generator passes every seed
// (the checks are deterministic for a given seed), tight enough that a
// drifted distribution — a wrong read mix, a missing burst-size bin, a
// mis-scaled load — fails (the mutation tests pin this non-vacuously).
const (
	// minSamples is the per-stream sample floor below which the
	// per-stream checks are skipped; the aggregate mixture checks run at
	// any size.
	minSamples = 64
	// sigma scales the binomial/renewal standard-error term.
	sigma = 5.0
	// fracSlack is the absolute slack added to every fraction check.
	fracSlack = 0.02
	// rateSlack is the relative slack on the injection-rate check,
	// covering the ±40% arrival jitter's small-sample bias and the
	// start-time desynchronisation.
	rateSlack = 0.12
)

// Miss is one calibration failure: an observed statistic outside its
// tolerance band around the spec's declared value. Core/Stream are
// empty for the aggregate (whole-workload) checks.
type Miss struct {
	Core   string
	Stream string
	// Metric names the check: "missing-workload", "read-frac",
	// "beats-share[8]", "rate".
	Metric string
	Want   float64
	Got    float64
	// Tol is the half-width of the accepted band around Want.
	Tol float64
}

// String renders the miss on one line.
func (m Miss) String() string {
	where := "aggregate"
	if m.Stream != "" {
		where = m.Core + "/" + m.Stream
	}
	return fmt.Sprintf("%s: %s: want %.4g ± %.4g, got %.4g", where, m.Metric, m.Want, m.Tol, m.Got)
}

// Calibrate compares a run's observed workload statistics against the
// spec's declared distributions and returns every miss (empty when the
// run is calibrated). The report must come from a run with workload
// collection enabled (system.Config.WorkloadStats); a spec stream with
// no workload entry is itself a miss.
//
// Per-stream checks (read fraction, burst-size histogram, open-loop
// injection rate) run above the minSamples floor; the aggregate mixture
// checks weight each stream's declared distribution by its observed
// request count, so they are exact conditional expectations at any
// sample size and any backpressure level. The injection-rate check is
// skipped for streams with visible backpressure — a saturated open-loop
// stream legitimately produces less than its offered load, which is
// deficit, not drift. Misses come out in a fixed order — streams as the
// spec lists them, burst sizes ascending — so a run's stderr and the
// returned slice repeat per seed.
func Calibrate(s *Spec, rep *obs.Report) []Miss {
	var misses []Miss

	byKey := map[string]obs.StreamWorkload{}
	for _, w := range rep.Workload {
		byKey[w.Core+"\x00"+w.Stream] = w
	}

	// Aggregate accumulators: expected counts weighted by each stream's
	// observed production.
	var totN, totReads, expReads, readVar float64
	expBeats := map[int]float64{}
	gotBeats := map[int]float64{}
	var allSizes []int

	for _, c := range s.Cores {
		for _, st := range c.Streams {
			w, ok := byKey[c.Name+"\x00"+st.Name]
			if !ok {
				misses = append(misses, Miss{Core: c.Name, Stream: st.Name, Metric: "missing-workload"})
				continue
			}
			n := float64(w.Produced)
			totN += n
			totReads += float64(w.Reads)
			expReads += n * st.ReadFrac
			readVar += n * st.ReadFrac * (1 - st.ReadFrac)
			sizes, menu := menuShares(st.Beats)
			allSizes = append(allSizes, sizes...)
			for _, b := range sizes {
				expBeats[b] += n * menu[b]
			}
			for _, bin := range w.Beats {
				gotBeats[bin.Beats] += float64(bin.Count)
				if menu[bin.Beats] == 0 {
					// A burst size outside the declared menu is drift at
					// any sample count.
					misses = append(misses, Miss{
						Core: c.Name, Stream: st.Name,
						Metric: fmt.Sprintf("beats-share[%d]", bin.Beats),
						Want:   0, Got: float64(bin.Count) / math.Max(n, 1), Tol: 0,
					})
				}
			}
			if w.Produced >= minSamples {
				misses = append(misses, checkStream(c.Name, st, w, rep.Cycles)...)
			}
		}
	}

	// Aggregate read fraction: sum of independent per-stream binomials.
	if totN > 0 {
		want := expReads / totN
		got := totReads / totN
		band := sigma*math.Sqrt(readVar)/totN + fracSlack
		if math.Abs(got-want) > band {
			misses = append(misses, Miss{Metric: "read-frac", Want: want, Got: got, Tol: band})
		}
		slices.Sort(allSizes)
		for _, b := range slices.Compact(allSizes) {
			want := expBeats[b] / totN
			got := gotBeats[b] / totN
			band := sigma*math.Sqrt(want*(1-want)/totN) + fracSlack
			if math.Abs(got-want) > band {
				misses = append(misses, Miss{
					Metric: fmt.Sprintf("beats-share[%d]", b),
					Want:   want, Got: got, Tol: band,
				})
			}
		}
	}
	return misses
}

// checkStream runs the per-stream checks for one calibrated stream.
func checkStream(core string, st traffic.Stream, w obs.StreamWorkload, cycles int64) []Miss {
	var misses []Miss
	n := float64(w.Produced)

	want := st.ReadFrac
	got := float64(w.Reads) / n
	band := sigma*math.Sqrt(want*(1-want)/n) + fracSlack
	if math.Abs(got-want) > band {
		misses = append(misses, Miss{Core: core, Stream: st.Name, Metric: "read-frac", Want: want, Got: got, Tol: band})
	}

	obsShare := map[int]float64{}
	for _, bin := range w.Beats {
		obsShare[bin.Beats] = float64(bin.Count) / n
	}
	sizes, shares := menuShares(st.Beats)
	for _, b := range sizes {
		share := shares[b]
		got := obsShare[b]
		band := sigma*math.Sqrt(share*(1-share)/n) + fracSlack
		if math.Abs(got-share) > band {
			misses = append(misses, Miss{
				Core: core, Stream: st.Name,
				Metric: fmt.Sprintf("beats-share[%d]", b),
				Want:   share, Got: got, Tol: band,
			})
		}
	}

	if !st.ClosedLoop && cycles > 0 {
		exp := float64(cycles) / expectedInterarrival(st.Beats, st.LoadFrac)
		// Visible backpressure means the stream could not realise its
		// offered load; the production count is then a deficit report,
		// not a generator statistic.
		if float64(w.BlockedCycles) <= 0.02*exp && exp >= minSamples {
			band := rateSlack*exp + sigma*math.Sqrt(exp)
			if math.Abs(n-exp) > band {
				misses = append(misses, Miss{Core: core, Stream: st.Name, Metric: "rate", Want: exp, Got: n, Tol: band})
			}
		}
	}
	return misses
}

// menuShares returns the menu's distinct burst sizes in ascending order
// and each one's draw probability under the uniform-with-repeats menu
// semantics.
func menuShares(beats []int) ([]int, map[int]float64) {
	shares := map[int]float64{}
	p := 1 / float64(len(beats))
	for _, b := range beats {
		shares[b] += p
	}
	sizes := slices.Clone(beats)
	slices.Sort(sizes)
	return slices.Compact(sizes), shares
}

// expectedInterarrival returns the mean open-loop request interval in
// cycles, reproducing the generator's arithmetic (integer rounding per
// menu entry; the ±40% jitter is mean-preserving up to its floor).
func expectedInterarrival(beats []int, load float64) float64 {
	var sum float64
	for _, b := range beats {
		sum += float64(int64(float64(dram.BurstCycles(b))/load + 0.5))
	}
	return sum / float64(len(beats))
}
