package scenario

import (
	"fmt"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
	"aanoc/internal/traffic"
)

// GenOptions tunes the scenario generator's distributions. The zero
// value selects the defaults listed per field.
type GenOptions struct {
	// MeshMin/MeshMax bound the mesh side lengths (defaults 3 and 6;
	// set both to 16 for the CI's large-mesh leg).
	MeshMin, MeshMax int
}

const (
	// loadMin/loadMax bound the aggregate open-loop offered load as a
	// fraction of one channel's data-bus bandwidth, scaled by the drawn
	// channel count. Below saturation the calibration layer can check
	// per-stream injection rates; the saturated paper regime is the
	// builtin apps' job.
	loadMin, loadMax = 0.35, 0.65
	// coreFracMin/coreFracMax bound the fraction of non-port mesh tiles
	// populated with cores.
	coreFracMin, coreFracMax = 0.5, 0.9
)

// withDefaults fills zero fields.
func (o GenOptions) withDefaults() GenOptions {
	if o.MeshMin == 0 {
		o.MeshMin = 3
	}
	if o.MeshMax == 0 {
		o.MeshMax = 6
	}
	return o
}

// uniform draws from [lo, hi). The span is float64 arithmetic on the
// bounds, not a constant expression: the pinned Generate hashes hold the
// rounding of the former.
func uniform(rng *sim.RNG, lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }

// Generate builds one valid scenario from the seed: a pure function of
// (seed, options), so the same inputs always return a deeply-equal spec
// — the determinism contract the property tests pin. Every generated
// spec passes Validate; the statistical-calibration harness
// additionally asserts that running it reproduces the declared
// distributions.
func Generate(seed uint64, o GenOptions) *Spec {
	o = o.withDefaults()
	rng := sim.NewRNG(seed ^ 0x5ce1a210)

	span := o.MeshMax - o.MeshMin + 1
	w := o.MeshMin + rng.Intn(span)
	h := o.MeshMin + rng.Intn(span)

	// Memory ports sit in mesh corners, the canonical (0,0) first — the
	// paper's placement, scaled the way the bluray2/ddtv4 models scale.
	corners := []noc.Coord{{X: 0, Y: 0}, {X: w - 1, Y: h - 1}, {X: 0, Y: h - 1}, {X: w - 1, Y: 0}}
	nPorts := sim.Pick(rng, []int{1, 1, 2, 2, 4})
	ports := corners[:nPorts]

	channels := 1 + rng.Intn(nPorts)
	scheme := ""
	if channels > 1 && channels&(channels-1) == 0 && rng.Intn(2) == 0 {
		scheme = "chan-bank-xor"
	}
	sched := sim.Pick(rng, []string{"", "", "", "", "dpq", "regulated", "staged"})

	s := &Spec{
		App: appmodel.App{
			Name:     fmt.Sprintf("scn-%x", seed),
			Mesh:     appmodel.Mesh{Width: w, Height: h},
			MemPorts: ports,
			Clocks: appmodel.Clocks{
				DDR1:   sim.Pick(rng, dram.Speeds(dram.DDR1)),
				DDR2:   sim.Pick(rng, dram.Speeds(dram.DDR2)),
				DDR3:   sim.Pick(rng, dram.Speeds(dram.DDR3)),
				DDR4:   sim.Pick(rng, dram.Speeds(dram.DDR4)),
				LPDDR3: sim.Pick(rng, dram.Speeds(dram.LPDDR3)),
			},
		},
		Run: &Run{
			Generation:     1 + rng.Intn(int(dram.LPDDR3)),
			Channels:       channels,
			Scheme:         scheme,
			Scheduler:      sched,
			PriorityDemand: rng.Intn(2) == 0,
			Seed:           seed,
			// Subarray-parallel banks on a minority of scenarios, so the
			// checked matrix exercises the MASA structure end to end.
			Subarrays: sim.Pick(rng, []int{0, 0, 0, 2, 4}),
		},
	}

	// Free tiles, shuffled; the first nCores get cores.
	used := map[noc.Coord]bool{}
	for _, p := range ports {
		used[p] = true
	}
	var free []noc.Coord
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if c := (noc.Coord{X: x, Y: y}); !used[c] {
				free = append(free, c)
			}
		}
	}
	for i := len(free) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		free[i], free[j] = free[j], free[i]
	}
	frac := uniform(rng, coreFracMin, coreFracMax)
	nCores := int(frac*float64(len(free)) + 0.5)
	if nCores < 1 {
		nCores = 1
	}
	if nCores > len(free) {
		nCores = len(free)
	}

	// Build cores from the appmodel archetypes with drawn parameters.
	// Open-loop loads start at zero with a raw weight each (ws, parallel
	// to the core's streams) and are normalised to the aggregate target
	// afterwards.
	type loaded struct{ core, stream int }
	var open []loaded
	var weights []float64
	target := uniform(rng, loadMin, loadMax) * float64(channels)
	for i := 0; i < nCores; i++ {
		at := free[i]
		var core appmodel.Core
		var ws []float64
		switch kind := rng.Intn(100); {
		case kind < 35:
			beats := sim.Pick(rng, [][]int{{64}, {128}, {96, 128}, {64, 96}, {20, 36}, {32, 64}})
			readFrac := sim.Pick(rng, []float64{0.3, 0.4, 0.5, 0.6})
			core = appmodel.Streamer(fmt.Sprintf("streamer%d", i), at, i, beats, 0, readFrac)
			ws = []float64{2 + 2*rng.Float64()}
		case kind < 60:
			core = appmodel.Codec(fmt.Sprintf("codec%d", i), at, i, 0, 0)
			ws = []float64{0.8 + 0.6*rng.Float64(), 0.5 + 0.4*rng.Float64()}
		case kind < 75:
			core = appmodel.CPU(fmt.Sprintf("cpu%d", i), at, i, int64(20+rng.Intn(100)), 0)
			core.Streams[0].MaxOutstanding = 2 + rng.Intn(4)
			ws = []float64{0, 0.2 + 0.2*rng.Float64()}
		default:
			pat := sim.Pick(rng, []traffic.Pattern{traffic.Streaming, traffic.Random})
			readFrac := sim.Pick(rng, []float64{0.5, 0.6})
			beats := sim.Pick(rng, [][]int{{2, 4}, {4, 12}, {36}})
			core = appmodel.Background(fmt.Sprintf("bg%d", i), at, i, beats, 0, readFrac, pat)
			ws = []float64{0.15 + 0.2*rng.Float64()}
		}
		for si := range core.Streams {
			if !core.Streams[si].ClosedLoop {
				open = append(open, loaded{len(s.Cores), si})
				weights = append(weights, ws[si])
			}
		}
		s.Cores = append(s.Cores, core)
	}
	var sum float64
	for _, w := range weights {
		sum += w
	}
	for k, at := range open {
		load := weights[k] / sum * target
		if load < 0.003 {
			load = 0.003
		}
		if load > 0.9 {
			load = 0.9
		}
		s.Cores[at.core].Streams[at.stream].LoadFrac = load
	}
	return s
}
