package aanoc

import (
	"bytes"
	"os"
	"runtime"
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

// BenchmarkLayers runs bench's simulating workloads in-process, so a
// profile of one sub-benchmark is a profile of that workload:
// scripts/layers.sh groups its CPU samples by package. tables-cold is the
// facade's Tables I-III at 100,000 cycles a point, two workers, into an
// empty store.
//
// Under -test.memprofilerate=1 every allocation is recorded with its
// stack, and each sub-benchmark also reports its allocations per op by
// phase: inside system.New, Runner.RunTo and Runner.Finish, and the rest
// (the sweep, the store, report encoding). The profile sees a tiny
// allocation (pointer-free, under 16 bytes) only when it opens a new
// 16-byte block, so the tiny ones it misses are reported on their own:
// the op's count from runtime.MemStats less the profiled ones.
func BenchmarkLayers(b *testing.B) {
	for _, w := range layerSims {
		cfg := w.cfg
		cfg.Seed = 1
		b.Run(w.name, func(b *testing.B) {
			var buf bytes.Buffer
			runLayerOps(b, func() {
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
		runLayerOps(b, func() {
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
}

// runLayerOps times b.N ops and, when every allocation is being
// profiled, reports their split by phase.
func runLayerOps(b *testing.B, op func()) {
	b.ReportAllocs()
	split := runtime.MemProfileRate == 1
	var before [numPhases]int64
	var m0, m1 runtime.MemStats
	if split {
		before = allocsByPhase()
		runtime.ReadMemStats(&m0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	if !split {
		return
	}
	runtime.ReadMemStats(&m1)
	after := allocsByPhase()
	unprofiled := int64(m1.Mallocs - m0.Mallocs)
	for p, name := range phaseNames {
		n := after[p] - before[p]
		unprofiled -= n
		b.ReportMetric(float64(n)/float64(b.N), name+"-allocs/op")
	}
	b.ReportMetric(float64(unprofiled)/float64(b.N), "tiny-allocs/op")
}

// The phases of a simulating op, by the outermost system call on an
// allocation's stack.
const (
	phaseNew = iota
	phaseRunTo
	phaseFinish
	phaseRest
	numPhases
)

var phaseNames = [numPhases]string{"new", "runto", "finish", "rest"}

var phaseFuncs = map[string]int{
	"aanoc/internal/system.New":              phaseNew,
	"aanoc/internal/system.(*Runner).RunTo":  phaseRunTo,
	"aanoc/internal/system.(*Runner).Finish": phaseFinish,
}

// allocsByPhase sums the heap profile's allocated objects by phase,
// leaving out its own. An allocation reaches the profile two completed
// collections after it was made, so it collects twice first.
func allocsByPhase() [numPhases]int64 {
	runtime.GC()
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	var sums [numPhases]int64
	for _, rec := range recs[:n] {
		phase := phaseRest
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			if p, ok := phaseFuncs[f.Function]; ok {
				phase = p
			}
			if f.Function == "aanoc.allocsByPhase" {
				phase = -1
			}
			if phase < 0 || !more || strings.HasPrefix(f.Function, "testing.") {
				break
			}
		}
		if phase >= 0 {
			sums[phase] += rec.AllocObjects
		}
	}
	return sums
}
