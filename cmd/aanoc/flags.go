package main

// The plumbing every subcommand shares, once: the shared flag table (run
// flags, grid flags, profilers) with its store-opener and sidecar
// writer, the violation reporter, the selector check and the design
// expansion.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"aanoc"
	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/store"
	"aanoc/internal/system"
)

// flags is one subcommand's flag set, holding the values of the shared
// flags it registered by name; a subcommand declares the flags only it
// has on the embedded FlagSet.
type flags struct {
	*flag.FlagSet
	shared []string
	// run starts as the subcommand's defaults and ends as the parsed
	// values: the fields of the one matrix every experiment is a cell of.
	run                    scenario.Run
	app, spec              string
	parallel               int
	progress, checked      bool
	store, json            string
	storeMax               int64
	cpuProfile, memProfile string
}

// newFlags starts a subcommand's flag set with the named shared flags,
// the run flags among them defaulting to the fields of defaults. Parse
// errors and -h go to stderr, doc ahead of the flag list.
func newFlags(name, doc string, stderr io.Writer, defaults scenario.Run, shared ...string) *flags {
	f := &flags{FlagSet: flag.NewFlagSet("aanoc "+name, flag.ContinueOnError), shared: shared, run: defaults, app: "bluray"}
	f.SetOutput(stderr)
	f.Usage = func() {
		fmt.Fprint(stderr, doc, "\nFlags:\n")
		f.PrintDefaults()
	}
	f.register(f.FlagSet)
	return f
}

// register is the shared flag table: one case per flag, each run flag
// bound to its scenario.Run field with the field's current value as the
// default. The same table therefore serves a subcommand's own flag set
// (its defaults) and the zero-valued replay set of explicit. A new run
// axis is one case here.
func (f *flags) register(fs *flag.FlagSet) {
	r := &f.run
	for _, n := range f.shared {
		switch n {
		case "app":
			fs.StringVar(&f.app, n, f.app, "application model: bluray, sdtv, ddtv, bluray2 or ddtv4")
		case "spec":
			fs.StringVar(&f.spec, n, f.spec, "scenario spec file (JSON): run on the spec's platform instead of a builtin application; explicit flags override the spec's run block")
		case "gen":
			fs.IntVar(&r.Generation, n, r.Generation, "DDR generation: 1-3 (DDR1/2/3), 4 (DDR4) or 5 (LPDDR3)")
		case "clock":
			fs.IntVar(&r.ClockMHz, n, r.ClockMHz, "memory clock in MHz (0: the platform's clock for the generation)")
		case "channels":
			fs.IntVar(&r.Channels, n, r.Channels, "independent SDRAM channels (needs a platform with that many memory ports)")
		case "chan-scheme":
			fs.StringVar(&r.Scheme, n, r.Scheme, "channel interleaving: bank-chan or chan-bank-xor")
		case "scheduler":
			fs.StringVar(&r.Scheduler, n, r.Scheduler, "memory scheduler: default, dpq, regulated or staged")
		case "subarrays":
			fs.IntVar(&r.Subarrays, n, r.Subarrays, "MASA-style row buffers per bank (0 or 1: classic single-buffer banks)")
		case "priority":
			fs.BoolVar(&r.PriorityDemand, n, r.PriorityDemand, "serve CPU demand requests as priority packets (Table II mode)")
		case "cycles":
			fs.Int64Var(&r.Cycles, n, r.Cycles, "simulated memory-clock cycles per run")
		case "seed":
			fs.Uint64Var(&r.Seed, n, r.Seed, "RNG seed (0: default)")
		case "sample-every":
			fs.Int64Var(&r.SampleEvery, n, r.SampleEvery, "record a time-series sample every N cycles in the report (0: off)")
		case "parallel":
			fs.IntVar(&f.parallel, n, runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial); output is identical at any setting")
		case "progress":
			fs.BoolVar(&f.progress, n, false, "report per-grid progress on stderr")
		case "store":
			fs.StringVar(&f.store, n, "", "persistent result-store directory: points already stored are served from disk, fresh results are written back; the output is byte-identical either way")
		case "store-max-bytes":
			fs.Int64Var(&f.storeMax, n, 0, "result-store size cap in bytes (0 = the 1 GiB default)")
		case "json":
			fs.StringVar(&f.json, n, "", "also write the observability report(s) behind the output as JSON to this file (\"-\": stdout); the text output is byte-identical with or without it")
		case "checked":
			fs.BoolVar(&f.checked, n, false, "run under the invariant layer (internal/check); violations go to stderr and exit status 2")
		case "cpuprofile":
			fs.StringVar(&f.cpuProfile, n, "", "write a CPU profile to this file")
		case "memprofile":
			fs.StringVar(&f.memProfile, n, "", "write a heap profile to this file on exit")
		default:
			panic("aanoc: no shared flag " + n)
		}
	}
}

// parse parses the subcommand's arguments; a rejected command line,
// reported here or by the flag set, becomes errUsage. No subcommand
// takes positional arguments, and the flag package stops at the first
// one: left alone, every flag after a stray word would be dropped
// silently.
func (f *flags) parse(args []string) error {
	err := f.Parse(args)
	if err == nil && f.NArg() > 0 {
		fmt.Fprintf(f.Output(), "%s: unexpected argument %q (subcommands take flags only; the flags after it were not read)\n", f.Name(), f.Arg(0))
		return errUsage
	}
	if err != nil && err != flag.ErrHelp {
		return errUsage
	}
	return err
}

// explicit returns the run block holding only the flags given on the
// command line, by replaying the visited flags through the same table
// onto a zero Run; appSet reports an explicit -app.
func (f *flags) explicit() (over scenario.Run, appSet bool) {
	zero := flags{shared: f.shared}
	replay := flag.NewFlagSet("", flag.ContinueOnError)
	zero.register(replay)
	f.Visit(func(fl *flag.Flag) {
		if replay.Lookup(fl.Name) != nil {
			// The value already parsed once as this flag's type.
			_ = replay.Set(fl.Name, fl.Value.String())
		}
		appSet = appSet || fl.Name == "app"
	})
	return zero.run, appSet
}

// resolve turns the parsed flags into a runnable configuration through
// scenario.Resolve — the path the facade uses, ending in the one rule
// list (system.Config.Validate) — so a subcommand that resolves before it
// prints rejects a bad flag with empty stdout. With -app the flag values
// are used whole and sp is nil. With -spec (naming both is an
// error) only the flags given explicitly override the spec's run block —
// a flag's default does not — and since PriorityDemand ORs in Run.Merge,
// -priority can grant but not revoke it.
func (f *flags) resolve() (sp *scenario.Spec, cfg system.Config, err error) {
	if f.spec == "" {
		app, err := appmodel.ByName(f.app)
		if err != nil {
			return nil, cfg, err
		}
		cfg, err = scenario.Resolve(app, f.run, system.Config{})
		return nil, cfg, err
	}
	over, appSet := f.explicit()
	if appSet {
		return nil, cfg, fmt.Errorf("-spec and -app are mutually exclusive")
	}
	if sp, err = scenario.Load(f.spec); err != nil {
		return nil, cfg, err
	}
	cfg, err = sp.SystemConfig(over)
	return sp, cfg, err
}

// cycles is the cycle count every run of a grid executes: -cycles through
// the one defaults table, so a header never names a count the rows did
// not run.
func (f *flags) cycles() int64 {
	return system.Config{Cycles: f.run.Cycles}.Resolved().Cycles
}

// openStore opens the -store directory; nil without one.
func (f *flags) openStore() (*store.Store, error) {
	if f.store == "" {
		return nil, nil
	}
	return store.Open(f.store, store.Options{MaxBytes: f.storeMax})
}

// tableOptions maps the flags onto the facade's table drivers.
func (f *flags) tableOptions(stderr io.Writer) (aanoc.TableOptions, error) {
	st, err := f.openStore()
	o := aanoc.TableOptions{Cycles: f.run.Cycles, Seed: f.run.Seed, Parallel: f.parallel, Checked: f.checked, Store: st}
	if f.progress {
		o.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}
	return o, err
}

// writeSidecar writes v — one report, a list of them, or rows keyed by
// table or point — in the canonical sidecar encoding to -json's file
// ("-": stdout). It does nothing without -json.
func (f *flags) writeSidecar(stdout io.Writer, v any) error {
	if f.json == "" {
		return nil
	}
	data, err := obs.EncodeSidecar(v)
	if err != nil {
		return err
	}
	if f.json == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(f.json, data, 0o644)
}

// violations is a subcommand's invariant verdict. Details go to stderr —
// stdout stays byte-identical to an unchecked run — and err turns any
// into the distinguished exit-status-2 error.
type violations struct {
	stderr io.Writer
	failed bool
}

// report lists one run's violations under a label naming the run.
func (v *violations) report(label string, vs []obs.Violation) {
	if len(vs) > 0 {
		v.failed = true
		fmt.Fprintf(v.stderr, "aanoc: %d invariant violation(s) on %s:\n%s", len(vs), label, obs.SummarizeViolations(vs, 20))
	}
}

// reportRows is report over a table's rows.
func (v *violations) reportRows(table string, rows []aanoc.Row) {
	for _, r := range rows {
		if r.Obs != nil {
			v.report(fmt.Sprintf("%s %s/%s/%s", table, r.App, dram.Generation(r.Gen), r.Design), r.Obs.Violations)
		}
	}
}

func (v *violations) err() error {
	if v.failed {
		return errViolations
	}
	return nil
}

// oneOf rejects a selector value outside its menu, naming the menu.
func oneOf(flagName, v string, menu ...string) error {
	for _, m := range menu {
		if v == m {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (want %s)", flagName, v, strings.Join(menu, ", "))
}

const designUsage = "design: CONV, CONV+PFS, [4], [4]+PFS, GSS, GSS+SAGM, GSS+SAGM+STI"

// designs expands -design/-all into the designs to run.
func designs(name string, all bool) ([]system.Design, error) {
	if all {
		return system.Designs(), nil
	}
	d, err := system.ParseDesign(name)
	return []system.Design{d}, err
}

// startProfiles begins CPU profiling when -cpuprofile is set — a CPU
// profile of a low-utilization run shows where the remaining cycles go
// once quiescent components stop ticking. The returned stop finalises
// the CPU profile and, when -memprofile is set, writes a heap profile;
// deferred as stop(&err), it folds its own failure into a subcommand's
// otherwise successful return.
func (f *flags) startProfiles() (stop func(errp *error), err error) {
	var cpuFile *os.File
	if f.cpuProfile != "" {
		if cpuFile, err = os.Create(f.cpuProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func(errp *error) {
		var err error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			err = cpuFile.Close()
		}
		if err == nil && f.memProfile != "" {
			runtime.GC() // settle allocations so the profile reflects live data
			var buf bytes.Buffer
			if err = pprof.WriteHeapProfile(&buf); err == nil {
				err = os.WriteFile(f.memProfile, buf.Bytes(), 0o644)
			}
		}
		if *errp == nil {
			*errp = err
		}
	}, nil
}
