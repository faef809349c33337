package system

import (
	"bytes"
	"reflect"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/trace"
)

// runSkip executes one configuration with idle-skip forced on or off and
// returns the complete Result (including the full observability report).
func runSkip(t *testing.T, cfg Config, skip bool) Result {
	t.Helper()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.SetIdleSkip(skip)
	r.RunTo(r.cfg.Cycles)
	return r.Finish()
}

// checkedTwin runs cfg checked with idle-skip on and off, and unchecked
// with it on. The checked runs must report clean and byte for byte
// alike, and the checked run must visit exactly its unchecked twin's
// cycles: the audits observe the default schedule, never replace it.
func checkedTwin(t *testing.T, cfg Config) {
	t.Helper()
	run := func(checked, skip bool) ([]byte, int64) {
		cfg := cfg
		cfg.Checked = checked
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.SetIdleSkip(skip)
		r.RunTo(cfg.Cycles)
		rep := r.Finish().Obs
		if len(rep.Violations) != 0 {
			t.Errorf("checked run, idle-skip %t: violations %v", skip, rep.Violations)
		}
		var buf bytes.Buffer
		if err := obs.EncodeJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), r.kern.Steps()
	}
	on, steps := run(true, true)
	off, _ := run(true, false)
	_, plain := run(false, true)
	if !bytes.Equal(on, off) {
		t.Error("checked reports differ between idle-skip on and off")
	}
	if steps != plain {
		t.Errorf("checked run visited %d cycles, its unchecked twin %d", steps, plain)
	}
}

// TestIdleSkipEquivalence is the kernel refactor's acceptance gate: for
// every design, a run with activity-driven idle-skip must produce a
// Result — metrics, device stats, per-link counters, per-core
// breakdowns, the entire observability report — deeply equal to the
// reference run that ticks every cycle. Any wakeup-protocol bug (a
// component sleeping through a cycle where it had work) diverges here.
func TestIdleSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system equivalence runs")
	}
	for _, d := range Designs() {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			cfg := Config{
				App: appmodel.BluRay(), Gen: dram.DDR2, Design: d,
				Cycles: 6_000, PriorityDemand: true, SampleEvery: 500,
			}
			on := runSkip(t, cfg, true)
			off := runSkip(t, cfg, false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("idle-skip on and off diverge:\n on: %+v\noff: %+v", on, off)
			}
			checkedTwin(t, cfg)
		})
	}
}

// TestIdleSkipEquivalenceVariants covers the wake paths the design grid
// leaves out: multiple virtual channels, adaptive routing, a different
// application and generation, an explicitly low-utilization app where
// idle-skip actually skips, a two-channel scaled app, four saturated
// points where blocked cores and routers sleep, every design on
// DDR4 with subarrays and on LPDDR3, and every memory scheduler saturated
// (the three related-work ones also on the saturated benchmark app,
// where admission sleeps on refused heads and the scheduler on a full
// pipeline), at low utilization and under a sparse replay — four requests 9,000 cycles
// apart, so the controller sleeps across whole regulation windows and
// anything it counts per tick (the regulator's window rolls did) shows
// the kernel's wake schedule in the report. The paper's Table I–III grid
// at 10,000 cycles rides along, compared as canonical report bytes: the
// in-process form of the `aanoc tables -table all` on/off CI leg.
func TestIdleSkipEquivalenceVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full-system equivalence runs")
	}
	cfgs := map[string]Config{
		"vc2-adaptive": {
			App: appmodel.SingleDTV(), Gen: dram.DDR1, Design: GSS,
			Cycles: 6_000, VirtualChannels: 2, AdaptiveRouting: true,
		},
		"ddr3-sagm": {
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGMSTI,
			Cycles: 6_000, SampleEvery: 750,
		},
		"low-util": {
			App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM,
			Cycles: 20_000, PriorityDemand: true, SampleEvery: 1000,
		},
		"bluray2-2ch": {
			App: appmodel.BluRay2(), Gen: dram.DDR2, Design: GSSSAGM, Channels: 2,
			Cycles: 6_000, PriorityDemand: true, SampleEvery: 1000,
		},
		// Saturated runs whose cores sleep blocked at InjectCap and whose
		// routers sleep on credits: MemMax behind round-robin routers, the
		// same with priority-first service and closed-loop priority
		// streams (settle before OnComplete), two virtual channels (a
		// credit on one VC must not wake a queue waiting on the other),
		// and the scale-ddr4 benchmark point (meshes past one bitset word
		// of links, four response injectors). WorkloadStats puts each
		// stream's lazily kept Blocked count in the compared report.
		"saturated-conv": {
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: Conv,
			Cycles: 20_000, SampleEvery: 1000, WorkloadStats: true,
		},
		"saturated-convpfs": {
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: ConvPFS,
			Cycles: 20_000, PriorityDemand: true, SampleEvery: 1000, WorkloadStats: true,
		},
		"saturated-convpfs-vc2": {
			App: appmodel.DualDTV(), Gen: dram.DDR3, Design: ConvPFS,
			Cycles: 20_000, PriorityDemand: true, VirtualChannels: 2, SampleEvery: 1000, WorkloadStats: true,
		},
		"scale-ddr4": {
			App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: GSSSAGM, PriorityDemand: true,
			Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4,
			Cycles: 20_000, SampleEvery: 1000, WorkloadStats: true,
		},
	}
	// Every design on the structured-timing devices: DDR4 with four
	// subarrays per bank (bank groups and the Row* subarray path) and
	// LPDDR3 (wide tFAW windows).
	for _, d := range Designs() {
		base := Config{App: appmodel.BluRay(), Design: d, Cycles: 6_000, PriorityDemand: true, SampleEvery: 1000}
		ddr4, lp := base, base
		ddr4.Gen, ddr4.Subarrays = dram.DDR4, 4
		lp.Gen = dram.LPDDR3
		cfgs["ddr4-subarrays-"+d.String()] = ddr4
		cfgs["lpddr3-"+d.String()] = lp
	}
	sparse := make([]trace.Record, 4)
	for i := range sparse {
		sparse[i] = trace.Record{
			Cycle: int64(i) * 9_000, Core: appmodel.BluRay().Cores[0].Name,
			Kind: "R", Class: "media", Bank: i, Row: i, Beats: 8,
		}
	}
	for _, sc := range memctrl.Schedulers() {
		base := Config{Gen: dram.DDR2, Design: GSSSAGM, PriorityDemand: true, Scheduler: sc}
		sat, low, rep := base, base, base
		sat.App, sat.Cycles = appmodel.BluRay(), 6_000
		low.App, low.Cycles = appmodel.LowUtil(), 20_000
		rep.App, rep.Cycles, rep.Replay = appmodel.BluRay(), 40_000, sparse
		cfgs[sc.String()+"-saturated"] = sat
		cfgs[sc.String()+"-low-util"] = low
		cfgs[sc.String()+"-sparse-replay"] = rep
		if sc != memctrl.SchedDefault {
			// The rows above run a lightly loaded DDR2 app; on the saturated
			// benchmark app the sink's head is refused and the scheduler
			// sleeps on a backlog behind a full pipeline most of the run.
			cfgs[sc.String()+"-saturated-ddtv"] = Config{
				App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM, Scheduler: sc,
				Cycles: 20_000, SampleEvery: 1000, WorkloadStats: true,
			}
		}
	}
	// Checked rows: the near-idle app, where the schedule skips most
	// cycles, a saturated Table I point, and the two scheduler monitors
	// across skipped spans.
	checked := map[string]bool{
		"low-util": true, "saturated-conv": true,
		"dpq-saturated-ddtv": true, "regulated-sparse-replay": true,
	}
	for name, cfg := range cfgs {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			on := runSkip(t, cfg, true)
			off := runSkip(t, cfg, false)
			if !reflect.DeepEqual(on, off) {
				t.Fatalf("idle-skip on and off diverge:\n on: %+v\noff: %+v", on, off)
			}
			if checked[name] {
				checkedTwin(t, cfg)
			}
		})
	}
	t.Run("tables", func(t *testing.T) {
		encoded := func(cfg Config, skip bool) []byte {
			var buf bytes.Buffer
			if err := obs.EncodeJSON(&buf, runSkip(t, cfg, skip).Obs); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		for _, cfg := range paperGrid(10_000) {
			if !bytes.Equal(encoded(cfg, true), encoded(cfg, false)) {
				t.Errorf("%s %s %s priority=%t: report bytes differ between idle-skip on and off",
					cfg.App.Name, cfg.Gen, cfg.Design, cfg.PriorityDemand)
			}
		}
	})
}

// paperGrid is the 78-point grid behind Tables I–III (the root package's
// TableI/II/III builders, which this package cannot import).
func paperGrid(cycles int64) []Config {
	var cfgs []Config
	for _, tbl := range []struct {
		designs  []Design
		priority bool
	}{
		{[]Design{Conv, SDRAMAware, GSS, GSSSAGM}, false},
		{[]Design{ConvPFS, SDRAMAwarePFS, GSS, GSSSAGM}, true},
	} {
		for _, app := range appmodel.Apps() {
			for _, gen := range []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3} {
				for _, d := range tbl.designs {
					cfgs = append(cfgs, Config{App: app, Gen: gen, Design: d, PriorityDemand: tbl.priority, Cycles: cycles})
				}
			}
		}
	}
	for _, app := range appmodel.Apps() {
		for _, d := range []Design{GSSSAGM, GSSSAGMSTI} {
			cfgs = append(cfgs, Config{
				App: app, Gen: dram.DDR3, Design: d, PriorityDemand: true,
				TagEveryRequest: true, Cycles: cycles,
			})
		}
	}
	return cfgs
}

// TestConfigNoIdleSkip: the Config field reaches the kernel (a low-
// utilization run then executes every cycle) and changes no result.
func TestConfigNoIdleSkip(t *testing.T) {
	cfg := Config{App: appmodel.LowUtil(), Gen: dram.DDR2, Design: GSSSAGM, Cycles: 20_000}
	var res [2]Result
	var steps [2]int64
	for i, off := range []bool{false, true} {
		cfg.NoIdleSkip = off
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.RunTo(cfg.Cycles)
		res[i], steps[i] = r.Finish(), r.kern.Steps()
	}
	if steps[1] != cfg.Cycles || steps[0] >= steps[1] {
		t.Fatalf("steps: %d with idle-skip, %d with NoIdleSkip over %d cycles", steps[0], steps[1], cfg.Cycles)
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Fatal("NoIdleSkip changed the result")
	}
}

// TestChunkedRunToEqualsSingle pins the property RunContext's epochs (and
// every caller that advances a Runner piecewise) rely on: RunTo in
// uneven chunks lands in exactly the state one RunTo reaches.
func TestChunkedRunToEqualsSingle(t *testing.T) {
	for _, app := range []appmodel.App{appmodel.BluRay(), appmodel.LowUtil()} {
		cfg := Config{App: app, Gen: dram.DDR2, Design: GSSSAGM, Cycles: 20_000, PriorityDemand: true, SampleEvery: 1000}
		whole, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		whole.RunTo(cfg.Cycles)
		chunked, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, end := range []int64{1, 777, 778, 9_000, 16_384, cfg.Cycles} {
			chunked.RunTo(end)
		}
		if a, b := whole.Finish(), chunked.Finish(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: chunked RunTo diverges:\nwhole:   %+v\nchunked: %+v", app.Name, a, b)
		}
	}
}
