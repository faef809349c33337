package aanoc

import (
	"fmt"
	"strings"

	"aanoc/internal/appmodel"
	"aanoc/internal/area"
	"aanoc/internal/dram"
	"aanoc/internal/mapping"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

// Row is one cell group of Tables I-III, one point of a sweep or one
// point of Fig. 8: an application at one clock point, measured under one
// design — the run's Result. Its json tags serve the machine-readable
// sidecars (aanoc tables -json, aanoc report -json); the human-readable
// text tables ignore Obs entirely, so sidecar support cannot move a byte
// of the default output.
type Row = Result

// TableOptions control the table drivers.
type TableOptions struct {
	// Cycles per run (default 200,000; the paper uses 1,000,000).
	Cycles int64
	Seed   uint64
	// Parallel bounds how many grid points simulate concurrently:
	// 0 selects runtime.GOMAXPROCS(0), 1 runs strictly serially. Every
	// run is deterministic and independent, so the results — and the
	// formatted tables — are byte-identical at any setting.
	Parallel int
	// Progress, when non-nil, is called after each grid point completes
	// with the number done and the grid size (serialised, not ordered).
	Progress func(done, total int)
	// Checked runs every grid point under the internal/check invariant
	// layer; violations land in each row's Obs.Violations (see
	// CheckedViolations). Fig8, Fig8Spec and TableV also return an error
	// naming the first violation, as the callers that print only their
	// numbers would not see it otherwise.
	// Checked runs measure identically to unchecked runs — the monitors
	// only observe.
	Checked bool
	// Spec, when set, replaces the paper's application matrix: the table
	// drivers evaluate the spec's platform — its mesh, cores, clocks and
	// (from its run block) channel configuration — under each driver's
	// design/generation axes instead of the three builtin applications.
	Spec *Spec
	// Store, when non-nil, persists every grid point's result in the
	// content-addressed result store: a table regenerated against a
	// populated store simulates nothing and reproduces byte-identical
	// output (see OpenStore).
	Store *Store
}

// apps returns the applications a driver iterates: the paper's three,
// or the single spec-driven platform.
func (o TableOptions) apps() ([]appmodel.App, error) {
	if o.Spec == nil {
		return appmodel.Apps(), nil
	}
	app, err := checkedApp(o.Spec)
	return []appmodel.App{app}, err
}

// checkedApp returns a spec's application model once its structure
// validates: a spec built in Go has not been through ParseSpec, and the
// drivers size their grids from it.
func checkedApp(s *Spec) (appmodel.App, error) {
	if err := s.App.Validate(); err != nil {
		return appmodel.App{}, specErr(fmt.Errorf("%w: %v", scenario.ErrSpec, err))
	}
	return s.App, nil
}

// collect runs a driver's grid on Sweep's executor: it attaches the
// spec's platform channel configuration to every point of a spec-driven
// grid, arms the invariant layer when the options ask for it, and
// returns the points' runs in submission order, or the first point's
// error. For grids of your own construction, prefer the typed sweep
// facade (SweepGrid / SweepOptions / Sweep): it subsumes Parallel,
// Progress and Store for arbitrary point lists and additionally exposes
// cancellation and per-point cache provenance — TableOptions keeps these
// fields only for the fixed paper-table drivers.
func (o TableOptions) collect(cfgs []system.Config) ([]Row, error) {
	var run SpecRun
	if o.Spec != nil && o.Spec.Run != nil {
		run = *o.Spec.Run
	}
	scheme := BankThenChannel
	if run.Scheme != "" {
		var err error
		if scheme, err = mapping.ParseChannelScheme(run.Scheme); err != nil {
			return nil, specErr(fmt.Errorf("%w %q", scenario.ErrBadScheme, run.Scheme))
		}
	}
	for i := range cfgs {
		cfgs[i].Channels, cfgs[i].Scheme = run.Channels, scheme
		cfgs[i].Checked = o.Checked
	}
	results, _ := sweep.Run(cfgs, SweepOptions{Workers: o.Parallel, OnProgress: o.Progress, Store: o.Store}.internal())
	if err := SweepFirstErr(results); err != nil {
		return nil, err
	}
	rows := make([]Row, len(results))
	for i, r := range results {
		rows[i] = r.Res
	}
	return rows, nil
}

// CheckedViolations counts the invariant violations the rows' checked
// runs found, those past a run's recording limit included — zero for a
// healthy simulator. Only meaningful for grids run with
// TableOptions.Checked.
func CheckedViolations(rows []Row) int {
	n := 0
	for _, r := range rows {
		if r.Obs != nil {
			n += int(obs.TotalViolations(r.Obs.Violations))
		}
	}
	return n
}

// checkedErr is the error of a grid whose checked runs recorded
// invariant violations, naming the first. Fig8, Fig8Spec and TableV
// return it: their callers print only the points' numbers (PowerRow
// carries no report at all) and could not see the violations otherwise.
func checkedErr(rows []Row) error {
	for i, row := range rows {
		if row.Obs != nil && len(row.Obs.Violations) > 0 {
			vs := row.Obs.Violations
			return fmt.Errorf("%w: %d on grid point %d (%s %s/%s), the first %s",
				obs.ErrViolations, obs.TotalViolations(vs), i, row.App, row.Gen, row.Design, vs[0])
		}
	}
	return nil
}

// matrix is the one grid loop behind Tables I-III and the scheduler
// table: every application under generation x design x scheduler, in
// that nesting order (a driver holds the axes it does not vary to one
// value, which leaves the order of the others as written), with set
// applying the driver's fixed knobs to each point. The runs, in
// submission order, are the table's rows.
func matrix(o TableOptions, gens []dram.Generation, designs []Design, scheds []memctrl.Scheduler, set func(*system.Config)) ([]Row, error) {
	apps, err := o.apps()
	if err != nil {
		return nil, err
	}
	cfgs := make([]system.Config, 0, len(apps)*len(gens)*len(designs)*len(scheds))
	for _, app := range apps {
		for _, gen := range gens {
			for _, d := range designs {
				for _, s := range scheds {
					cfgs = append(cfgs, system.Config{App: app, Gen: gen, Design: d, Scheduler: s, Cycles: o.Cycles, Seed: o.Seed})
					set(&cfgs[len(cfgs)-1])
				}
			}
		}
	}
	return o.collect(cfgs)
}

// The axes and knobs the paper's matrices share.
var (
	paperGens    = []dram.Generation{dram.DDR1, dram.DDR2, dram.DDR3}
	ownScheduler = []memctrl.Scheduler{memctrl.SchedDefault}
)

func noPriority(*system.Config)       {}
func priority(c *system.Config)       { c.PriorityDemand = true }
func priorityTagged(c *system.Config) { c.PriorityDemand, c.TagEveryRequest = true, true }

// TableI reproduces the paper's Table I: CONV, [4], GSS and GSS+SAGM on
// the three applications and three DDR generations, with no priority
// memory requests.
func TableI(o TableOptions) ([]Row, error) {
	return matrix(o, paperGens, []Design{Conv, SDRAMAware, GSS, GSSSAGM}, ownScheduler, noPriority)
}

// TableII reproduces Table II: CONV+PFS, [4]+PFS, GSS and GSS+SAGM with
// demand requests served as priority packets.
func TableII(o TableOptions) ([]Row, error) {
	return matrix(o, paperGens, []Design{ConvPFS, SDRAMAwarePFS, GSS, GSSSAGM}, ownScheduler, priority)
}

// TableIII reproduces Table III: GSS+SAGM+STI against GSS+SAGM on DDR III
// at the three high clock points, where short turn-around bank
// interleaving matters. Every request carries the AP tag: the
// paper-literal partially-open-page policy is the regime where short
// turn-around interleaving hurts and the STI filters help.
func TableIII(o TableOptions) ([]Row, error) {
	return matrix(o, []dram.Generation{dram.DDR3}, []Design{GSSSAGM, GSSSAGMSTI}, ownScheduler, priorityTagged)
}

// TableSchedulers evaluates the memory-scheduler zoo against the
// paper's controllers: each scheduler (the design default, DPQ,
// regulated, staged) on the three applications under GSS+SAGM with
// priority demand, across a generation axis — DDR II at the paper
// clock, plus DDR4 (bank groups, long/short tCCD/tRRD) and LPDDR3
// (wide tFAW) at their fastest grades. It is the
// predictability-versus-throughput comparison the zoo exists for — the
// DPQ buys an analytic worst-case bound and the regulator buys per-bank
// isolation, both at a utilization cost the rows quantify — and the
// generation column shows how the structured-timing devices move it.
func TableSchedulers(o TableOptions) ([]Row, error) {
	return matrix(o, []dram.Generation{dram.DDR2, dram.DDR4, dram.LPDDR3}, []Design{GSSSAGM}, memctrl.Schedulers(), priority)
}

// Fig8 reproduces one curve of Fig. 8 for an application: memory
// performance versus the number of GSS routers (0..mesh size), where
// row k is the run with the k routers nearest the memory running GSS
// and the rest conventional. The paper pairs single DTV with DDR I at
// 200 MHz, Blu-ray with DDR II at 333 MHz and dual DTV with DDR III at
// 667 MHz; pass gen/clock accordingly. The named builtin is the
// platform, so TableOptions.Spec is ignored (its run block included);
// Fig8Spec sweeps a spec.
func Fig8(appName string, gen, clockMHz int, o TableOptions) ([]Row, error) {
	app, err := appmodel.ByName(appName)
	if err != nil {
		return nil, err
	}
	o.Spec = nil
	return fig8(app, gen, clockMHz, o)
}

// Fig8Spec sweeps the GSS-router count over a spec-driven platform: the
// Fig. 8 curve for a declarative scenario instead of a named builtin.
// clockMHz 0 selects the spec's clock for the generation.
func Fig8Spec(spec *Spec, gen, clockMHz int, o TableOptions) ([]Row, error) {
	app, err := checkedApp(spec)
	if err != nil {
		return nil, err
	}
	o.Spec = spec
	return fig8(app, gen, clockMHz, o)
}

func fig8(app appmodel.App, gen, clockMHz int, o TableOptions) ([]Row, error) {
	var cfgs []system.Config
	for k := 0; k <= app.Width*app.Height; k++ {
		n := k
		if k == 0 {
			n = -1 // zero GSS routers (0 in Config means "all")
		}
		cfgs = append(cfgs, system.Config{
			App: app, Gen: dram.Generation(gen), ClockMHz: clockMHz,
			Design: GSSSAGM, GSSRouters: n,
			PriorityDemand: true,
			Cycles:         o.Cycles, Seed: o.Seed,
		})
	}
	rows, err := o.collect(cfgs)
	if err != nil {
		return nil, err
	}
	if err := checkedErr(rows); err != nil {
		return nil, err
	}
	return rows, nil
}

// AreaRow is one line of Table IV (gate counts at 400 MHz).
type AreaRow = area.Table4Row

// TableIV reproduces the paper's gate-count comparison.
func TableIV() []AreaRow { return area.Table4() }

// PowerRow is one line of Table V: average power of a full design running
// an application at its clock point.
type PowerRow struct {
	App      string
	ClockMHz int
	Design   string
	PowerMW  float64
}

// TableV reproduces the paper's power comparison: CONV, [4] and
// GSS+SAGM+STI running single DTV at 200 MHz, Blu-ray at 400 MHz and dual
// DTV at 800 MHz. Gate counts come from the Table IV model scaled to each
// mesh; activity comes from simulation. The three cases are the paper's
// fixed application/clock pairs, so TableOptions.Spec is ignored.
func TableV(o TableOptions) ([]PowerRow, error) {
	cases := []struct {
		app   string
		gen   int
		clock int
	}{
		{"sdtv", 1, 200},
		{"bluray", 2, 400},
		{"ddtv", 3, 800},
	}
	designs := []struct {
		d    Design
		fc   area.FlowController
		mem  area.MemSubsystem
		gssN int
	}{
		{Conv, area.FCConv, area.MemMax, 0},
		{SDRAMAware, area.FCRef4, area.MemSimple, 3},
		{GSSSAGMSTI, area.FCGSSSTI, area.MemSimpleAP, 3},
	}
	// Point i is case i/len(designs) under design i%len(designs).
	var cfgs []system.Config
	apps := make([]appmodel.App, len(cases))
	for ci, c := range cases {
		app, err := appmodel.ByName(c.app)
		if err != nil {
			return nil, err
		}
		apps[ci] = app
		for _, ds := range designs {
			cfgs = append(cfgs, system.Config{
				App: app, Gen: dram.Generation(c.gen), ClockMHz: c.clock,
				Design: ds.d, PriorityDemand: true,
				Cycles: o.Cycles, Seed: o.Seed,
			})
		}
	}
	o.Spec = nil
	rows, err := o.collect(cfgs)
	if err != nil {
		return nil, err
	}
	if err := checkedErr(rows); err != nil {
		return nil, err
	}
	out := make([]PowerRow, len(rows))
	for i, r := range rows {
		app, clock, ds := apps[i/len(designs)], cases[i/len(designs)].clock, designs[i%len(designs)]
		gates := area.NoCGates(app.Width, app.Height, 16, ds.fc, ds.mem, ds.gssN)
		out[i] = PowerRow{
			App: app.Name, ClockMHz: clock, Design: ds.d.String(),
			PowerMW: area.Power(gates, clock, r.Utilization),
		}
	}
	return out, nil
}

// FormatSchedulerRows renders a scheduler-comparison grid as an aligned
// text table, one line per (app, scheduler) point.
func FormatSchedulerRows(rows []Row) string {
	var b strings.Builder
	b.Grow(96 * (len(rows) + 1))
	fmt.Fprintf(&b, "%-8s %-4s %5s  %-14s %-10s %6s %8s %8s %8s\n",
		"app", "gen", "MHz", "design", "scheduler", "util", "lat-all", "lat-dem", "lat-pri")
	for _, r := range rows {
		sched := r.Scheduler
		if sched == "" {
			sched = "default"
		}
		fmt.Fprintf(&b, "%-8s %-4s %5d  %-14s %-10s %.3f %8.0f %8.0f %8.0f\n",
			r.App, r.Gen, r.ClockMHz, r.Design, sched, r.Utilization,
			r.LatAll, r.LatDemand, r.LatPriority)
	}
	return b.String()
}

// FormatRows renders rows as an aligned text table, one line per row.
func FormatRows(rows []Row) string {
	var b strings.Builder
	b.Grow(96 * (len(rows) + 1))
	fmt.Fprintf(&b, "%-8s %-4s %5s  %-14s %6s %7s %8s %8s %8s %7s\n",
		"app", "gen", "MHz", "design", "util", "useful", "lat-all", "lat-dem", "lat-pri", "waste")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-4s %5d  %-14s %.3f  %.3f %8.0f %8.0f %8.0f %6.1f%%\n",
			r.App, r.Gen, r.ClockMHz, r.Design, r.Utilization, r.UsefulUtilization,
			r.LatAll, r.LatDemand, r.LatPriority, 100*r.WasteFrac)
	}
	return b.String()
}
