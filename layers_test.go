package aanoc

import (
	"bytes"
	"context"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/obs"
	"aanoc/internal/system"
)

// layerSims are bench's single-simulation workloads at seed 1: one op is
// system.New, RunTo, Finish and the canonical encoding of the report.
var layerSims = []struct {
	name string
	cfg  system.Config
}{
	{"sat-gss", system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM, Cycles: 2_000_000}},
	{"sat-conv", system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.Conv, Cycles: 3_000_000}},
	{"lowutil-skip", system.Config{App: appmodel.LowUtil(), Gen: dram.DDR2, Design: system.GSSSAGM, PriorityDemand: true, Cycles: 60_000_000}},
	{"scale-ddr4", system.Config{
		App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: system.GSSSAGM, PriorityDemand: true,
		Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4, Cycles: 500_000,
	}},
}

// BenchmarkLayers runs bench's workloads in-process, so a profile of one
// sub-benchmark is a profile of that workload: scripts/layers.sh groups
// its CPU samples by package. tables-cold is the facade's Tables I-III
// at 100,000 cycles a point, two workers, into an empty store;
// serve-warm is the facade's warm Sweep of the 72-point Table I+II grid
// at 50,000 cycles, one worker, over a store filled in set-up (the
// server's own layers, the body decode and NDJSON encode, are left out).
//
// Under -test.memprofilerate=1 every allocation is recorded with its
// stack, and each sub-benchmark also reports its allocations and bytes
// per op by phase (simPhases, servePhases) and the rest. The profile
// sees a tiny allocation (pointer-free, under 16 bytes) only when it
// opens a new 16-byte block, so the tiny ones it misses are reported on
// their own: the op's count and bytes from runtime.MemStats less the
// profiled ones.
func BenchmarkLayers(b *testing.B) {
	for _, w := range layerSims {
		cfg := w.cfg
		cfg.Seed = 1
		b.Run(w.name, func(b *testing.B) {
			var buf bytes.Buffer
			runLayerOps(b, simPhases, func() {
				r, err := system.New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				r.RunTo(cfg.Cycles)
				buf.Reset()
				if err := obs.EncodeJSON(&buf, r.Finish().Obs); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
	b.Run("tables-cold", func(b *testing.B) {
		tmp := b.TempDir()
		runLayerOps(b, simPhases, func() {
			dir, err := os.MkdirTemp(tmp, "tables-")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			st, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			o := TableOptions{Cycles: 100_000, Seed: 1, Parallel: 2, Store: st}
			for _, table := range []func(TableOptions) ([]Row, error){TableI, TableII, TableIII} {
				if _, err := table(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("serve-warm", func(b *testing.B) {
		st, err := OpenStore(b.TempDir(), StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		var grid SweepGrid
		for _, table := range []struct {
			designs  []Design
			priority bool
		}{
			{[]Design{Conv, SDRAMAware, GSS, GSSSAGM}, false},
			{[]Design{ConvPFS, SDRAMAwarePFS, GSS, GSSSAGM}, true},
		} {
			for _, app := range []App{AppBluRay, AppSDTV, AppDDTV} {
				for gen := 1; gen <= 3; gen++ {
					for _, d := range table.designs {
						grid.Points = append(grid.Points, Config{
							Model: app, Generation: gen, Design: d,
							PriorityDemand: table.priority, Cycles: 50_000, Seed: 1,
						})
					}
				}
			}
		}
		if _, _, err := Sweep(grid, SweepOptions{Store: st, Workers: 1}); err != nil {
			b.Fatal(err)
		}
		runLayerOps(b, servePhases, func() {
			if _, stats, err := Sweep(grid, SweepOptions{Store: st, Workers: 1}); err != nil || stats.StoreHits != len(grid.Points) {
				b.Fatalf("warm sweep: %+v, %v", stats, err)
			}
		})
	})
}

// runLayerOps times b.N ops and, when every allocation is being
// profiled, reports their split by phase. The ops carry the profiler
// label op=timed, so a CPU profile can leave a workload's set-up out.
func runLayerOps(b *testing.B, phases []phase, op func()) {
	b.ReportAllocs()
	split := runtime.MemProfileRate == 1
	timed := pprof.WithLabels(context.Background(), pprof.Labels("op", "timed"))
	var before []phaseAllocs
	var m0, m1 runtime.MemStats
	if split {
		before = allocsByPhase(phases)
		runtime.ReadMemStats(&m0)
	}
	b.ResetTimer()
	pprof.SetGoroutineLabels(timed)
	for i := 0; i < b.N; i++ {
		op()
	}
	pprof.SetGoroutineLabels(context.Background())
	b.StopTimer()
	if !split {
		return
	}
	runtime.ReadMemStats(&m1)
	after := allocsByPhase(phases)
	unprofiled := phaseAllocs{int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc)}
	report := func(name string, a phaseAllocs) {
		b.ReportMetric(float64(a.objects)/float64(b.N), name+"-allocs/op")
		b.ReportMetric(float64(a.bytes)/float64(b.N), name+"-B/op")
	}
	for p := range after {
		name := "rest"
		if p < len(phases) {
			name = phases[p].name
		}
		n := phaseAllocs{after[p].objects - before[p].objects, after[p].bytes - before[p].bytes}
		unprofiled.objects -= n.objects
		unprofiled.bytes -= n.bytes
		report(name, n)
	}
	report("tiny", unprofiled)
}

// phaseAllocs is what one phase allocated: objects and their bytes.
type phaseAllocs struct{ objects, bytes int64 }

// A phase is where an allocation goes when fn is the outermost phase
// function on its stack; one under none of them is the rest.
type phase struct{ name, fn string }

// simPhases split a simulating op by system call: the rest is the sweep,
// the store and report encoding.
var simPhases = []phase{
	{"New", "aanoc/internal/system.New"},
	{"RunTo", "aanoc/internal/system.(*Runner).RunTo"},
	{"Finish", "aanoc/internal/system.(*Runner).Finish"},
}

// servePhases split a warm sweep by the step a point's result takes:
// resolving its Config (the model lookup and validation included), its
// fingerprint and its store read; the rest is the executor and the rows.
var servePhases = []phase{
	{"resolve", "aanoc.Config.resolve"},
	{"Fingerprint", "aanoc/internal/sweep.Fingerprint"},
	{"store.Get", "aanoc/internal/store.(*Store).Get"},
}

// allocsByPhase sums the heap profile's allocated objects and bytes by
// phase, the rest last, leaving out its own. An allocation reaches the
// profile two completed collections after it was made, so it collects
// twice first.
func allocsByPhase(phases []phase) []phaseAllocs {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	rest := len(phases)
	sums := make([]phaseAllocs, rest+1)
	for _, rec := range recs[:n] {
		at := rest
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			for p := range phases {
				if phases[p].fn == f.Function {
					at = p
				}
			}
			if f.Function == "aanoc.allocsByPhase" {
				at = -1
			}
			if at < 0 || !more || strings.HasPrefix(f.Function, "testing.") {
				break
			}
		}
		if at >= 0 {
			sums[at].objects += rec.AllocObjects
			sums[at].bytes += rec.AllocBytes
		}
	}
	return sums
}
