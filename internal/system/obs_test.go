package system

import (
	"bytes"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/trace"
)

// TestWithDefaultsPinned pins every resolved default. The sweep
// fingerprint cache keys on the resolved configuration, so a default
// drifting silently would split (or worse, merge) cache entries; this
// test forces such a change to be deliberate.
func TestWithDefaultsPinned(t *testing.T) {
	app := appmodel.BluRay()
	c := Config{App: app, Gen: dram.DDR2}.Resolved()
	checks := []struct {
		name string
		got  int64
		want int64
	}{
		{"ClockMHz", int64(c.ClockMHz), int64(app.Clocks.At(dram.DDR2))},
		{"PCT", int64(c.PCT), 3},
		{"Cycles", c.Cycles, 200_000},
		{"Warmup", c.Warmup, 20_000}, // Cycles/10
		{"Seed", int64(c.Seed), 0xA11CE},
		{"VirtualChannels", int64(c.VirtualChannels), 1},
		{"SampleEvery", c.SampleEvery, 0}, // sampling stays opt-in
		// The fixed sizes: no store key holds them, so a change bumps the
		// store's formatVersion.
		{"bufFlits", bufFlits, 8},
		{"injectCap", injectCap, 64},
		{"memPipeline", memPipeline, 8},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("default %s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}

// TestWarmupSentinel covers the explicit-zero contract: zero selects the
// default warmup, the -1 sentinel selects no warmup at all. The sentinel
// survives resolution (it may not resolve to 0, which would re-fill the
// default on a second resolve) — resolution must be idempotent, or
// sweep fingerprints of resolved configs would drift.
func TestWarmupSentinel(t *testing.T) {
	base := Config{App: appmodel.BluRay(), Gen: dram.DDR2, Cycles: 50_000}
	if got := base.Resolved().Warmup; got != 5_000 {
		t.Errorf("implicit warmup = %d, want Cycles/10 = 5000", got)
	}
	base.Warmup = -1
	if got := base.Resolved().Warmup; got != -1 {
		t.Errorf("sentinel warmup = %d, want -1 (preserved)", got)
	}
	if got := base.Resolved().Resolved().Warmup; got != -1 {
		t.Errorf("re-resolved sentinel warmup = %d, want -1 (idempotent)", got)
	}
	base.Warmup = 123
	if got := base.Resolved().Warmup; got != 123 {
		t.Errorf("explicit warmup = %d, want 123", got)
	}
	// The report never shows the sentinel: a no-warmup run reports 0.
	base.Warmup = -1
	res, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs.Warmup != 0 {
		t.Errorf("report warmup = %d, want 0", res.Obs.Warmup)
	}
}

// TestReplayBackpressureConservation saturates a single core's injection
// port with a recorded burst and checks the stall accounting against the
// conservation law of Runner.Step: while the replayer still holds
// pending records, the core's every cycle is either a stall (NI refused
// work) or a generation — never both, never neither. The aggregate
// Stalled counter, the per-NI breakdown in the report, and the injector
// high-water mark must all tell the same story.
func TestReplayBackpressureConservation(t *testing.T) {
	app := appmodel.BluRay()
	loaded := app.Cores[0].Name
	const m, steps = 500, 200
	recs := make([]trace.Record, m)
	for i := range recs {
		// All at cycle 0: the replayer wants to issue every cycle, so only
		// backpressure can hold it back. Writes need no response traffic.
		recs[i] = trace.Record{
			Cycle: 0, Core: loaded, Kind: "W", Class: "media",
			Bank: i % 4, Row: i / 4, Col: 0, Beats: 8,
		}
	}
	r, err := New(Config{
		App: app, Gen: dram.DDR2, Design: GSS,
		Cycles: steps, Seed: 7, Replay: recs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		r.kern.Step()
	}
	tot := settledTotals(r)
	if tot.generated >= m {
		t.Fatalf("replayer drained %d records in %d cycles; burst too small to saturate", m, steps)
	}
	if tot.stalled+tot.generated != steps {
		t.Errorf("stalled %d + generated %d = %d, want %d (one outcome per cycle)",
			tot.stalled, tot.generated, tot.stalled+tot.generated, steps)
	}
	if tot.stalled == 0 {
		t.Errorf("no stalls despite a saturating burst and a %d-flit injection cap", injectCap)
	}
	if got := r.cores[0].queuedHWM; got < injectCap {
		t.Errorf("NI backlog HWM %d never reached the injection cap %d", got, injectCap)
	}

	rep := r.Finish().Obs
	var stallSum int64
	for _, ni := range rep.NIs {
		stallSum += ni.StallCycles
		if ni.Core != loaded && ni.StallCycles != 0 {
			t.Errorf("idle core %s reports %d stall cycles", ni.Core, ni.StallCycles)
		}
	}
	if stallSum != tot.stalled || rep.Stalled != tot.stalled {
		t.Errorf("per-NI stalls sum to %d and the report's Stalled is %d, want the settled %d",
			stallSum, rep.Stalled, tot.stalled)
	}
}

// TestObservabilityReport runs a saturated configuration with sampling on
// and checks the report against the run it describes: identity, cross
// totals, per-link and per-bank activity, and the JSON round trip the CLI
// sidecars rely on.
func TestObservabilityReport(t *testing.T) {
	cfg := smokeCfg(GSSSAGM)
	cfg.SampleEvery = 1000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Obs
	if rep == nil {
		t.Fatal("Result.Obs not populated")
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	if rep.Design != res.Design.String() || rep.App != res.App || rep.Cycles != cfg.Resolved().Cycles {
		t.Errorf("report identity %s/%s/%d disagrees with result %s/%s and config's %d cycles",
			rep.Design, rep.App, rep.Cycles, res.Design, res.App, cfg.Resolved().Cycles)
	}
	if rep.Utilization != res.Utilization || rep.Generated != res.Generated {
		t.Error("report headline counters disagree with Result")
	}
	if rep.Stalled == 0 {
		t.Error("saturated run reports zero stall cycles")
	}
	var grants int64
	for _, l := range rep.Network.Request.Links {
		grants += l.Grants
		if l.Utilization < 0 || l.Utilization > 1 {
			t.Errorf("link %s/%s utilization %v outside [0,1]", l.Router, l.Port, l.Utilization)
		}
	}
	if grants == 0 {
		t.Error("no allocator grants recorded on the request mesh")
	}
	var acts int64
	for _, b := range rep.Memory.Banks {
		acts += b.Activates
	}
	if acts == 0 {
		t.Error("no activates in the per-bank breakdown")
	}
	if rep.Memory.Stream == nil {
		t.Error("lightweight-controller run missing stream-quality breakdown")
	}
	if len(rep.NIs) != len(cfg.App.Cores) {
		t.Errorf("%d NI entries for %d cores", len(rep.NIs), len(cfg.App.Cores))
	}
	if want := cfg.Cycles / cfg.SampleEvery; int64(len(rep.Samples)) != want {
		t.Errorf("%d samples, want Cycles/SampleEvery = %d", len(rep.Samples), want)
	}

	// The JSON round trip the sidecars rely on.
	var buf bytes.Buffer
	if err := obs.EncodeJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	back, err := obs.DecodeJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("serialized report does not parse back: %v", err)
	}
	if back.Stalled != rep.Stalled || len(back.Samples) != len(rep.Samples) ||
		len(back.Network.Request.Links) != len(rep.Network.Request.Links) {
		t.Error("round-tripped report lost content")
	}
}

// TestSamplingDoesNotPerturb pins the promise in the Config.SampleEvery
// doc: sampling is observe-only, so a sampled run and an unsampled run of
// the same configuration produce identical measurements.
func TestSamplingDoesNotPerturb(t *testing.T) {
	plain, err := Run(smokeCfg(GSSSAGM))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeCfg(GSSSAGM)
	cfg.SampleEvery = 500
	sampled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(plain, sampled) {
		t.Error("enabling SampleEvery changed simulation results")
	}
	if len(sampled.Obs.Samples) == 0 || len(plain.Obs.Samples) != 0 {
		t.Error("sampling flag not reflected in the reports")
	}
}
