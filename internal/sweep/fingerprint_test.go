package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/memctrl"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
	"aanoc/internal/trace"
	"aanoc/internal/traffic"
)

// fingerprintFmt is the reference implementation of Fingerprint: the
// fmt-based body every populated store was keyed with. Fingerprint
// writes the same bytes by hand; TestFingerprintMatchesReference and
// FuzzFingerprint hold it to this function byte for byte. Keep it
// verbatim.
func fingerprintFmt(cfg system.Config) (string, bool) {
	if cfg.Trace != nil || cfg.Fault != dram.FaultNone {
		return "", false
	}
	c := cfg.Resolved()
	h := sha256.New()
	// The application model, in declaration order. Port 0 is written
	// twice, after "mem" and again in the port list: the bytes every
	// stored entry is keyed on. (A model with no ports hashes without
	// panicking; it fails Validate, so nothing is stored under it.)
	fmt.Fprintf(h, "app=%s/%dx%d/mem", c.App.Name, c.App.Width, c.App.Height)
	for i, p := range c.App.Ports() {
		if i == 0 {
			fmt.Fprintf(h, "%+v|", p)
		}
		fmt.Fprintf(h, "port=%+v|", p)
	}
	fmt.Fprintf(h, "chan=%d scheme=%d|", c.Channels, c.Scheme)
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		fmt.Fprintf(h, "clk%d=%d|", gen, c.App.Clocks.At(gen))
	}
	for _, core := range c.App.Cores {
		fmt.Fprintf(h, "core=%s@%+v|", core.Name, core.Pos)
		for _, s := range core.Streams {
			fmt.Fprintf(h, "stream=%+v|", s)
		}
	}
	// SampleEvery and Checked are part of the key although they never
	// perturb the simulation: a sampled run's Result carries the time
	// series and a checked run's report carries the Checked/Violations
	// fields, so neither may be served from (or into) a differently
	// configured point's cache entry.
	fmt.Fprintf(h,
		"gen=%d clk=%d design=%d sched=%d pct=%d gssr=%d pd=%t cyc=%d warm=%d seed=%d buf=8 vc=%d adapt=%t cap=64 pipe=8 split=%d tag=%t sample=%d chk=%t subs=%d|",
		c.Gen, c.ClockMHz, c.Design, c.Scheduler, c.PCT, c.GSSRouters, c.PriorityDemand,
		c.Cycles, c.Warmup, c.Seed, c.VirtualChannels,
		c.AdaptiveRouting, c.SplitGranularity,
		c.TagEveryRequest, c.SampleEvery, c.Checked, c.Subarrays)
	// The spec hash ties a spec-driven run to its workload content; the
	// workload-stats flag shapes the report (like SampleEvery/Checked)
	// without perturbing the simulation, so it must split cache entries
	// the same way.
	fmt.Fprintf(h, "spec=%s wl=%t|", c.SpecHash, c.WorkloadStats)
	if c.PagePolicy != nil {
		fmt.Fprintf(h, "page=%d|", *c.PagePolicy)
	}
	fmt.Fprintf(h, "replay=%d|", len(c.Replay))
	for _, rec := range c.Replay {
		fmt.Fprintf(h, "rec=%+v|", rec)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// fillDistinct sets every field under v to a distinct non-zero value,
// counting from *n. A kind it does not know fails the test, so a field
// of a new kind added to traffic.Stream or trace.Record has to be taught
// here, and then to Fingerprint's appenders.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		v.SetFloat(float64(*n) / 3)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(t, v.Field(i), n)
		}
	default:
		t.Fatalf("fillDistinct: no value for kind %s (%s)", v.Kind(), v.Type())
	}
}

// TestFingerprintMatchesReference holds Fingerprint to the fmt-based
// reference byte for byte over the builtin grid, every optional part of
// the key, generated scenarios (random stream floats), float edge cases
// and a stream and replay record with every field set.
func TestFingerprintMatchesReference(t *testing.T) {
	var cfgs []system.Config
	for _, app := range append(appmodel.Apps(), appmodel.Scaled()...) {
		for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
			for _, d := range system.Designs() {
				for _, pd := range []bool{false, true} {
					cfgs = append(cfgs, system.Config{App: app, Gen: gen, Design: d, PriorityDemand: pd})
				}
			}
		}
	}
	for p := memctrl.OpenPage; p <= memctrl.ClosedPage; p++ {
		cfg := grid(1)[0]
		cfg.PagePolicy = &p
		cfgs = append(cfgs, cfg)
	}
	sentinel := grid(1)[0]
	sentinel.Warmup = -1
	spec := grid(1)[0]
	spec.SpecHash = "0123abcd"
	spec.WorkloadStats = true
	spec.Replay = []trace.Record{
		{Cycle: 3, Core: "cpu", Kind: "R", Class: "demand", Priority: true, Bank: 1, Row: 2, Col: 8, Beats: 4},
		{Cycle: 9, Core: "vid", Kind: "W", Class: "media", Bank: 3, Row: 7, Col: 16, Beats: 8, EndOfRow: true},
	}
	cfgs = append(cfgs, sentinel, spec, system.Config{})
	for seed := uint64(1); seed <= 64; seed++ {
		cfg, err := scenario.Generate(seed, scenario.GenOptions{}).SystemConfig(scenario.Run{})
		if err != nil {
			t.Fatalf("generated scenario %d: %v", seed, err)
		}
		cfgs = append(cfgs, cfg)
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e20, 1e21, 1e-4, 1e-5, 123456789,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()} {
		cfg := grid(1)[0]
		s := &cfg.App.Cores[0].Streams[0]
		s.ReadFrac, s.LoadFrac = f, -f
		cfgs = append(cfgs, cfg)
	}
	var s traffic.Stream
	var rec trace.Record
	n := 0
	fillDistinct(t, reflect.ValueOf(&s).Elem(), &n)
	fillDistinct(t, reflect.ValueOf(&rec).Elem(), &n)
	filled := grid(1)[0]
	filled.App.Cores[0].Streams[0] = s
	filled.Replay = []trace.Record{rec}
	cfgs = append(cfgs, filled)

	for i, cfg := range cfgs {
		got, ok := Fingerprint(cfg)
		want, wantOK := fingerprintFmt(cfg)
		if got != want || ok != wantOK {
			t.Fatalf("config %d (%s): Fingerprint = %s/%t, reference %s/%t", i, cfg.App.Name, got, ok, want, wantOK)
		}
	}
}

// TestFingerprintAllocs gates the key's allocations: the bytes stream
// through one small stack buffer into a stack digest, so the count does
// not grow with the model's cores and streams.
func TestFingerprintAllocs(t *testing.T) {
	for _, app := range []appmodel.App{appmodel.DualDTV(), appmodel.QuadDTV()} {
		cfg := system.Config{App: app, Gen: dram.DDR3, Design: system.GSSSAGM}
		if got := testing.AllocsPerRun(100, func() { Fingerprint(cfg) }); got > 3 {
			t.Errorf("%s: Fingerprint allocates %.0f times, want at most 3", app.Name, got)
		}
	}
}

var fingerprintSink string

func BenchmarkFingerprint(b *testing.B) {
	cfg := system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fingerprintSink, _ = Fingerprint(cfg)
	}
}
