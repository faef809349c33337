package main

import (
	"context"
	"fmt"
	"io"

	"aanoc/internal/dram"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
)

const simUsage = `aanoc sim runs one simulation configuration (or one application across
all designs) and prints the paper's metrics: memory utilization, average
memory latency of all packets, and average latency of demand/priority
packets.

  aanoc sim -app bluray -gen 2 -design GSS+SAGM -cycles 500000
  aanoc sim -app ddtv -gen 3 -design CONV -priority
  aanoc sim -spec scenario.json -design GSS+SAGM  # declarative workload
  aanoc sim -all -gen 2 -priority          # all designs, one app
  aanoc sim -json report.json -sample-every 1000
  aanoc sim -json - | jq .stalled          # report to stdout, no table

-json writes one JSON object for a single run and an array (one report
per design) with -all.
`

func simCmd(ctx context.Context, args []string, stdout, stderr io.Writer) (err error) {
	f := newFlags("sim", simUsage, stderr,
		scenario.Run{Generation: 2, Channels: 1, Scheme: "bank-chan", Scheduler: "default", Cycles: 200_000},
		"app", "spec", "gen", "clock", "channels", "chan-scheme", "scheduler", "subarrays", "priority", "cycles", "seed", "sample-every",
		"json", "checked", "cpuprofile", "memprofile")
	var (
		design   = f.String("design", "GSS", designUsage)
		all      = f.Bool("all", false, "run every design on the selected app/generation")
		pct      = f.Int("pct", 3, "priority control token for GSS designs, 1-6")
		gssN     = f.Int("gss-routers", 0, "GSS routers nearest memory (0: all, -1: none)")
		perCore  = f.Bool("percore", false, "print the per-core service breakdown and Jain fairness index")
		workload = f.Bool("workload", false, "include the per-stream workload (calibration) breakdown in the report")
		fault    = f.String("inject-fault", "", "test aid: arm one device fault (slow-cas, skip-trcd or skip-tfaw) so a -checked run proves the breach exits 2")
		noSkip   = f.Bool("no-idle-skip", false, "test aid: tick every cycle even when every component sleeps; the output must not change with it")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	stopProf, err := f.startProfiles()
	if err != nil {
		return err
	}
	defer stopProf(&err)
	_, base, err := f.resolve()
	if err != nil {
		return err
	}
	base.PCT = *pct
	base.GSSRouters = *gssN
	base.Checked = f.checked
	base.WorkloadStats = *workload
	base.NoIdleSkip = *noSkip
	if *fault != "" {
		if base.Fault, err = dram.ParseFault(*fault); err != nil {
			return fmt.Errorf("-inject-fault: %w", err)
		}
	}
	ds, err := designs(*design, *all)
	if err != nil {
		return err
	}
	// -pct and -gss-routers were set after resolve; they meet the rule
	// list here, before the header prints.
	if err := base.Validate(); err != nil {
		return err
	}
	// With -json -, the report owns stdout and the human table is
	// suppressed so the output stays machine-parseable.
	table := f.json != "-"
	if table {
		fmt.Fprintf(stdout, "%-14s %-8s %-5s %5s  %6s %8s %8s %8s %8s %7s\n",
			"design", "app", "gen", "MHz", "util", "lat-all", "lat-dem", "lat-pri", "done", "waste")
	}
	var reports []*obs.Report
	v := violations{stderr: stderr}
	for _, d := range ds {
		cfg := base
		cfg.Design = d
		res, err := system.RunContext(ctx, cfg)
		if err != nil {
			return err
		}
		reports = append(reports, res.Obs)
		v.report(res.Design.String(), res.Obs.Violations)
		if !table {
			continue
		}
		fmt.Fprintf(stdout, "%-14s %-8s %-5s %5d  %.3f %8.0f %8.0f %8.0f %8d %6.1f%%\n",
			res.Design, res.App, res.Gen, res.ClockMHz,
			res.Utilization, res.LatAll, res.LatDemand, res.LatPriority,
			res.Completed, 100*res.WasteFrac)
		if *perCore {
			fmt.Fprintf(stdout, "  fairness (Jain over served beats): %.3f\n", res.Fairness)
			for _, ni := range res.Obs.NIs {
				fmt.Fprintf(stdout, "  %-12s served=%6d beats=%8d lat=%7.0f\n", ni.Core, ni.Completed, ni.Beats,
					float64(ni.LatencySum)/float64(max(ni.Completed, 1))) // no completions, no latency
			}
		}
	}
	// A single run emits one JSON object, -all an array.
	var sidecar any = reports
	if len(reports) == 1 {
		sidecar = reports[0]
	}
	if err := f.writeSidecar(stdout, sidecar); err != nil {
		return err
	}
	return v.err()
}
