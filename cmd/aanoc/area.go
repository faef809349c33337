package main

import (
	"context"
	"fmt"
	"io"

	"aanoc"
	"aanoc/internal/scenario"
)

const areaUsage = `aanoc area regenerates the paper's Table IV (gate counts of the flow
controller, router, memory subsystem and full 3x3 NoC at the 400 MHz
operating point) and Table V (average power of the three full designs
running the benchmark applications), using the analytic area and
activity-based power models that substitute for the paper's synthesis
flow.
`

func areaCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	f := newFlags("area", areaUsage, stderr, scenario.Run{Cycles: 100_000}, "cycles", "seed")
	table := f.String("table", "all", "which table to print: 4, 5 or all")
	if err := f.parse(args); err != nil {
		return err
	}
	if err := oneOf("table", *table, "4", "5", "all"); err != nil {
		return err
	}
	if *table != "5" {
		fmt.Fprintln(stdout, "=== Table IV — gate counts at 400 MHz (analytic model) ===")
		rows := aanoc.TableIV()
		base := rows[len(rows)-1]
		fmt.Fprintf(stdout, "%-14s %16s %12s %18s %14s\n", "design", "flow controller", "router", "memory subsystem", "3x3 NoC")
		for _, r := range rows {
			fmt.Fprintf(stdout, "%-14s %10d (%.3f) %6d (%.3f) %12d (%.3f) %8d (%.3f)\n",
				r.Design,
				r.FlowController, float64(r.FlowController)/float64(base.FlowController),
				r.Router, float64(r.Router)/float64(base.Router),
				r.MemorySubsystem, float64(r.MemorySubsystem)/float64(base.MemorySubsystem),
				r.NoC3x3, float64(r.NoC3x3)/float64(base.NoC3x3))
		}
		fmt.Fprintln(stdout)
	}
	if *table != "4" {
		fmt.Fprintln(stdout, "=== Table V — average power (activity-based model) ===")
		rows, err := aanoc.TableV(aanoc.TableOptions{Cycles: f.run.Cycles, Seed: f.run.Seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-8s %5s  %-14s %10s %8s\n", "app", "MHz", "design", "power", "ratio")
		for i := 0; i < len(rows); i += 3 {
			group := rows[i : i+3]
			base := group[len(group)-1].PowerMW
			for _, r := range group {
				fmt.Fprintf(stdout, "%-8s %5d  %-14s %8.1f mW %8.3f\n", r.App, r.ClockMHz, r.Design, r.PowerMW, r.PowerMW/base)
			}
		}
	}
	return nil
}
