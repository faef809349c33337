// Command aanoc-sim runs one simulation configuration (or one design
// across all applications) and prints the paper's metrics: memory
// utilization, average memory latency of all packets, and average latency
// of demand/priority packets.
//
// Examples:
//
//	aanoc-sim -app bluray -gen 2 -design GSS+SAGM -cycles 500000
//	aanoc-sim -app ddtv -gen 3 -design CONV -priority
//	aanoc-sim -spec scenario.json -design GSS+SAGM  # declarative workload
//	aanoc-sim -all -gen 2 -priority          # all designs, one app
//	aanoc-sim -json report.json -sample-every 1000
//	aanoc-sim -json - | jq .stalled          # report to stdout, no table
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/prof"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
)

func main() {
	var (
		appName  = flag.String("app", "bluray", "application model: bluray, sdtv, ddtv, bluray2 or ddtv4")
		specPath = flag.String("spec", "", "scenario spec file (JSON); replaces -app, explicit flags override the spec's run block")
		gen      = flag.Int("gen", 2, "DDR generation: 1-3 (DDR1/2/3), 4 (DDR4) or 5 (LPDDR3)")
		clock    = flag.Int("clock", 0, "memory clock in MHz (0: the app's clock for the generation)")
		design   = flag.String("design", "GSS", "design: CONV, CONV+PFS, [4], [4]+PFS, GSS, GSS+SAGM, GSS+SAGM+STI")
		cycles   = flag.Int64("cycles", 200_000, "simulated memory-clock cycles")
		seed     = flag.Uint64("seed", 0, "RNG seed (0: default)")
		pct      = flag.Int("pct", 3, "priority control token for GSS designs")
		gssN     = flag.Int("gss-routers", 0, "GSS routers nearest memory (0: all, -1: none)")
		priority = flag.Bool("priority", false, "serve CPU demand requests as priority packets (Table II mode)")
		channels = flag.Int("channels", 1, "independent SDRAM channels (needs an app with that many memory ports)")
		scheme   = flag.String("chan-scheme", "bank-chan", "channel interleaving: bank-chan or chan-bank-xor")
		schedFlg = flag.String("scheduler", "default", "memory scheduler: default, dpq, regulated or staged")
		subarr   = flag.Int("subarrays", 0, "MASA-style row buffers per bank (0 or 1: classic single-buffer banks)")
		all      = flag.Bool("all", false, "run every design on the selected app/generation")
		perCore  = flag.Bool("percore", false, "print the per-core service breakdown and Jain fairness index")
		jsonOut  = flag.String("json", "", "write the observability report(s) as JSON to this file (\"-\": stdout, suppressing the table)")
		sample   = flag.Int64("sample-every", 0, "record a time-series sample every N cycles in the report (0: off)")
		workload = flag.Bool("workload", false, "include the per-stream workload (calibration) breakdown in the report")
		checked  = flag.Bool("checked", false, "run under the invariant layer (internal/check); violations go to stderr and exit status 2")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	// Interrupts cancel the run between kernel epochs, so a ^C exits
	// promptly without killing the process mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	// Everything funnels through scenario.Resolve — the same validation
	// path the facade uses — whether the platform comes from a builtin
	// application model or a spec file.
	base, err := scenario.ResolveFlags(flag.CommandLine, *specPath, *appName, scenario.Run{
		Generation: *gen, ClockMHz: *clock, Channels: *channels,
		Scheme: *scheme, Scheduler: *schedFlg, PriorityDemand: *priority,
		Cycles: *cycles, Seed: *seed, SampleEvery: *sample,
		Subarrays: *subarr,
	})
	if err != nil {
		fatal(err)
	}
	base.PCT = *pct
	base.GSSRouters = *gssN
	base.Checked = *checked
	base.WorkloadStats = *workload
	// Mutation knob for the CLI-level fault-injection tests: arm one
	// device fault so an end-to-end run can prove checked mode turns the
	// breach into a non-zero exit. Deliberately not a flag.
	if f := os.Getenv("AANOC_INJECT_FAULT"); f != "" {
		if base.Fault, err = dram.ParseFault(f); err != nil {
			fatal(fmt.Errorf("AANOC_INJECT_FAULT: %w", err))
		}
	}
	// Escape hatch and CI equivalence gate: tick every cycle even when
	// every component sleeps. The output must not change with it.
	base.NoIdleSkip = os.Getenv("AANOC_NO_IDLE_SKIP") != ""
	designs := []system.Design{}
	if *all {
		designs = system.Designs()
	} else {
		d, err := system.ParseDesign(*design)
		if err != nil {
			fatal(err)
		}
		designs = append(designs, d)
	}
	// With -json -, the report owns stdout and the human table is
	// suppressed so the output stays machine-parseable.
	table := *jsonOut != "-"
	if table {
		fmt.Printf("%-14s %-8s %-5s %5s  %6s %8s %8s %8s %8s %7s\n",
			"design", "app", "gen", "MHz", "util", "lat-all", "lat-dem", "lat-pri", "done", "waste")
	}
	var reports []*obs.Report
	violated := false
	for _, d := range designs {
		cfg := base
		cfg.Design = d
		res, err := system.RunContext(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		reports = append(reports, res.Obs)
		if len(res.Obs.Violations) > 0 {
			violated = true
			fmt.Fprintf(os.Stderr, "aanoc-sim: %d invariant violation(s) on %s:\n%s",
				len(res.Obs.Violations), res.Design, obs.SummarizeViolations(res.Obs.Violations, 20))
		}
		if !table {
			continue
		}
		fmt.Printf("%-14s %-8s %-5s %5d  %.3f %8.0f %8.0f %8.0f %8d %6.1f%%\n",
			res.Design, res.App, res.Gen, res.ClockMHz,
			res.Utilization, res.LatAll, res.LatDemand, res.LatPriority,
			res.Completed, 100*res.WasteFrac)
		if *perCore {
			fmt.Printf("  fairness (Jain over served beats): %.3f\n", res.Fairness)
			for _, c := range res.PerCore {
				fmt.Printf("  %-12s served=%6d beats=%8d lat=%7.0f\n",
					c.Name, c.Completed, c.Beats, c.MeanLatency())
			}
		}
	}
	if *jsonOut != "" {
		if err := writeReports(*jsonOut, reports); err != nil {
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if violated {
		os.Exit(2)
	}
}

// writeReports serialises the observability reports: a single run emits
// one JSON object, -all emits an array (one report per design).
func writeReports(path string, reports []*obs.Report) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if len(reports) == 1 {
		return obs.EncodeJSON(out, reports[0])
	}
	data, err := obs.EncodeSidecar(reports)
	if err != nil {
		return err
	}
	_, err = out.Write(data)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aanoc-sim:", err)
	os.Exit(1)
}
