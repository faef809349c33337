package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"

	"aanoc"
	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/obs"
	"aanoc/internal/store"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// workload is one named set of inputs. Op sizes are fixed here and are
// the same on both commits of any comparison; only the number of timed
// ops follows -seconds.
type workload struct {
	Name string
	Why  string
	// warmups and minOps are the untimed and the least timed op counts at
	// benchmark size; both shrink with the op-size divisor.
	warmups, minOps int
	// setup builds the inputs from the seed. div divides every op size
	// (1 is the benchmark; the smoke test uses 100).
	setup func(e *env) (instance, error)
}

// env is what a workload's set-up gets from the run.
type env struct {
	seed    uint64
	div     int64
	workers int
	tmp     string // scratch directory of this run, removed when it ends
	tr      *tracer
}

// instance is a set-up workload: op runs one operation and is all the
// run times.
type instance interface {
	op(root int) (opOut, error)
	// slice is the configuration the idle-skip and checked-mode
	// comparisons run (a fraction of a simulation op; a grid's first
	// point).
	slice() system.Config
	close()
}

// opOut is what one op returned, for the output checks and the exact
// per-layer counts.
type opOut struct {
	cycles int64 // sum of Config.Cycles over the rows the op returned
	// reports are digested by the run, outside the timed region, unless
	// the op encoded its own output (encoded).
	reports []*obs.Report
	encoded []byte
	results []system.Result // set by ops that see the full results
	sweep   sweep.Stats
	store   store.Stats // store traffic of this op
	// requests counts the HTTP requests the op sent.
	requests int
}

var workloads = []workload{
	{
		Name: "sat-gss", warmups: 1, minOps: 3,
		Why:   "Saturated 4x4 mesh, GSS allocators full, memctrl.Simple on the classic DDR3 device: noc, core, memctrl and dram do nearly all the work, idle-skip and the service layers none.",
		setup: simSetup(system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.GSSSAGM, Cycles: 2_000_000}),
	},
	{
		Name: "sat-conv", warmups: 1, minOps: 3,
		Why:   "Same mesh and device through router.RoundRobin/PriorityFirst allocators and the memctrl.MemMax thread-queue scheduler: a GSS-path gain that costs the interface-dispatched path shows here.",
		setup: simSetup(system.Config{App: appmodel.DualDTV(), Gen: dram.DDR3, Design: system.Conv, Cycles: 3_000_000}),
	},
	{
		Name: "lowutil-skip", warmups: 1, minOps: 3,
		Why:   "About 4% bus utilization: sim.Kernel idle-skip, NextWake closures and per-request allocation dominate while mesh and DRAM arbitration idle; kernel changes show here and hot-path changes must not.",
		setup: simSetup(system.Config{App: appmodel.LowUtil(), Gen: dram.DDR2, Design: system.GSSSAGM, PriorityDemand: true, Cycles: 60_000_000}),
	},
	{
		Name: "scale-ddr4", warmups: 1, minOps: 3,
		Why: "6x6 mesh, 32 cores, four DDR4 channels (chan-bank-xor) with 4 subarrays: the only workload on dram's bank-group and Row* subarray path, mapping.ChannelMap/StructMap and four controllers.",
		setup: simSetup(system.Config{
			App: appmodel.QuadDTV(), Gen: dram.DDR4, Design: system.GSSSAGM, PriorityDemand: true,
			Channels: 4, Scheme: mapping.ChannelThenBankXOR, Subarrays: 4, Cycles: 500_000,
		}),
	},
	{
		Name: "tables-cold", warmups: 1, minOps: 2,
		Why:   "The paper user's end-to-end: Tables I-III as 78 short runs into an empty store, so system.New, report assembly, fingerprinting, the worker pool and store.Put weigh in; the one with reference data.",
		setup: tablesSetup,
	},
	{
		Name: "serve-warm", warmups: 200, minOps: 300,
		Why:   "No simulation: one closed-loop client POSTs the 72-point Table I+II grid to aanoc-serve over a populated store; body decode, validation, fingerprinting, store.Get, row assembly and NDJSON encode.",
		setup: serveSetup,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// simInst is a single-simulation workload: one op is system.New, RunTo,
// Finish and the canonical encoding of the report, on one goroutine.
type simInst struct {
	cfg system.Config
	tr  *tracer
	buf bytes.Buffer
}

func simSetup(base system.Config) func(*env) (instance, error) {
	return func(e *env) (instance, error) {
		cfg := base
		cfg.Seed = e.seed
		cfg.Cycles /= e.div
		return &simInst{cfg: cfg, tr: e.tr}, nil
	}
}

func (s *simInst) op(root int) (opOut, error) {
	res, err := tracedRun(s.tr, root, s.cfg)
	if err != nil {
		return opOut{}, err
	}
	id := s.tr.begin("obs.encode", root)
	s.buf.Reset()
	err = obs.EncodeJSON(&s.buf, res.Obs)
	s.tr.end(id)
	if err != nil {
		return opOut{}, err
	}
	return opOut{cycles: s.cfg.Cycles, encoded: s.buf.Bytes(), results: []system.Result{res}}, nil
}

func (s *simInst) slice() system.Config { return s.cfg }
func (s *simInst) close()               {}

// tracedRun is system.Run with a span around each of its three calls.
func tracedRun(tr *tracer, parent int, cfg system.Config) (system.Result, error) {
	id := tr.begin("system.new", parent)
	r, err := system.New(cfg)
	tr.end(id)
	if err != nil {
		return system.Result{}, err
	}
	id = tr.begin("system.run", parent)
	r.RunTo(cfg.Resolved().Cycles)
	tr.end(id)
	id = tr.begin("system.finish", parent)
	res := r.Finish()
	tr.end(id)
	return res, nil
}

// paperGrid is the configuration grid of aanoc.TableI, TableII and
// TableIII, rebuilt here so the traced run can put spans around every
// point (the facade exposes neither RunFunc nor the store interface).
// The traced and the facade op must produce the same digest, which
// holds the two grids equal.
func paperGrid(cycles int64, seed uint64) [3][]system.Config {
	var g [3][]system.Config
	matrix := func(designs []system.Design, priority bool) []system.Config {
		var cfgs []system.Config
		for _, app := range appmodel.Apps() {
			for _, gen := range []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3} {
				for _, d := range designs {
					cfgs = append(cfgs, system.Config{
						App: app, Gen: gen, Design: d, PriorityDemand: priority, Cycles: cycles, Seed: seed,
					})
				}
			}
		}
		return cfgs
	}
	g[0] = matrix([]system.Design{system.Conv, system.SDRAMAware, system.GSS, system.GSSSAGM}, false)
	g[1] = matrix([]system.Design{system.ConvPFS, system.SDRAMAwarePFS, system.GSS, system.GSSSAGM}, true)
	for _, app := range appmodel.Apps() {
		for _, d := range []system.Design{system.GSSSAGM, system.GSSSAGMSTI} {
			g[2] = append(g[2], system.Config{
				App: app, Gen: dram.DDR3, Design: d, PriorityDemand: true, TagEveryRequest: true,
				Cycles: cycles, Seed: seed,
			})
		}
	}
	return g
}

// tracedStore puts a span around every store call the sweep executor
// makes.
type tracedStore struct {
	st     *store.Store
	tr     *tracer
	parent int
}

func (s tracedStore) Get(fp string) (system.Result, bool, error) {
	id := s.tr.beginWorker("store.get_miss", s.parent)
	res, ok, err := s.st.Get(fp)
	if ok {
		s.tr.rename(id, "store.get_hit")
	}
	s.tr.end(id)
	return res, ok, err
}

func (s tracedStore) Put(fp string, res system.Result) error {
	id := s.tr.beginWorker("store.put", s.parent)
	err := s.st.Put(fp, res)
	s.tr.end(id)
	return err
}

// harnessSweep runs a grid through sweep.Run with a span per point
// (sweep.point, with the system.* spans inside) and per store call.
func harnessSweep(tr *tracer, parent int, cfgs []system.Config, workers int, st *store.Store) ([]sweep.Result, sweep.Stats, error) {
	results, stats := sweep.Run(cfgs, sweep.Options{
		Workers: workers,
		Store:   tracedStore{st, tr, parent},
		RunFunc: func(cfg system.Config) (system.Result, error) {
			id := tr.beginWorker("sweep.point", parent)
			defer tr.end(id)
			return tracedRun(tr, id, cfg)
		},
	})
	return results, stats, sweep.FirstErr(results)
}

// tablesInst is the Tables I-III workload. Untraced, an op is the
// facade's three table drivers over a fresh empty store; traced, it is
// the same grid through harnessSweep.
type tablesInst struct {
	e      *env
	cycles int64
}

func tablesSetup(e *env) (instance, error) {
	return &tablesInst{e: e, cycles: 100_000 / e.div}, nil
}

const tablePoints = 78

func (t *tablesInst) op(root int) (opOut, error) {
	dir, err := os.MkdirTemp(t.e.tmp, "tables-")
	if err != nil {
		return opOut{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return opOut{}, err
	}
	out := opOut{cycles: tablePoints * t.cycles}
	if root >= 0 {
		for _, cfgs := range paperGrid(t.cycles, t.e.seed) {
			results, stats, err := harnessSweep(t.e.tr, root, cfgs, t.e.workers, st)
			if err != nil {
				return opOut{}, err
			}
			out.sweep.Runs += stats.Runs
			out.sweep.CacheHits += stats.CacheHits
			out.sweep.StoreHits += stats.StoreHits
			for _, r := range results {
				out.results = append(out.results, r.Res)
				out.reports = append(out.reports, r.Res.Obs)
			}
		}
	} else {
		o := aanoc.TableOptions{Cycles: t.cycles, Seed: t.e.seed, Parallel: t.e.workers, Store: st}
		for _, table := range []func(aanoc.TableOptions) ([]aanoc.Row, error){aanoc.TableI, aanoc.TableII, aanoc.TableIII} {
			rows, err := table(o)
			if err != nil {
				return opOut{}, err
			}
			for _, r := range rows {
				out.reports = append(out.reports, r.Obs)
			}
		}
	}
	out.store = st.Stats()
	if len(out.reports) != tablePoints || out.store.Entries != tablePoints {
		return opOut{}, fmt.Errorf("tables-cold: %d rows and %d store entries, want %d of each",
			len(out.reports), out.store.Entries, tablePoints)
	}
	return out, nil
}

func (t *tablesInst) slice() system.Config { return paperGrid(t.cycles, t.e.seed)[0][0] }
func (t *tablesInst) close()               {}

// workersFor is the worker count of the grid workloads: sized for a
// two-core machine.
func workersFor() int { return min(2, runtime.NumCPU()) }
