package main

import (
	"context"
	"fmt"
	"io"

	"aanoc"
	"aanoc/internal/paperdata"
	"aanoc/internal/scenario"
)

const fig8Usage = `aanoc fig8 regenerates the paper's Fig. 8: memory utilization (a), latency
of all packets (b) and latency of priority packets (c) as conventional
routers are replaced by GSS routers, nearest the memory subsystem first.
The paper pairs single DTV with DDR I at 200 MHz, Blu-ray with DDR II at
333 MHz and dual DTV with DDR III at 667 MHz.

With -spec the sweep runs on the spec's platform instead of the paper's
three curves; -gen and -clock (which need -spec) override its run block.
`

func fig8Cmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	f := newFlags("fig8", fig8Usage, stderr, scenario.Run{Cycles: 120_000}, "cycles", "seed", "spec", "gen", "clock", "parallel")
	if err := f.parse(args); err != nil {
		return err
	}
	o, err := f.tableOptions(stderr)
	if err != nil {
		return err
	}
	printCurve := func(title string, pts []aanoc.Fig8Point) {
		fmt.Fprintf(stdout, "=== Fig. 8 — %s ===\n", title)
		fmt.Fprintf(stdout, "%4s %8s %10s %10s\n", "#GSS", "util", "lat-all", "lat-pri")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%4d %8.3f %10.0f %10.0f\n", p.GSSRouters, p.Utilization, p.LatencyAll, p.LatencyPriority)
		}
	}
	if f.spec != "" {
		sp, cfg, err := f.resolve()
		if err != nil {
			return err
		}
		pts, err := aanoc.Fig8Spec(sp, int(cfg.Gen), cfg.ClockMHz, o)
		if err != nil {
			return err
		}
		printCurve(fmt.Sprintf("%s, DDR%d", sp.Name, cfg.Gen), pts)
		return nil
	}
	if f.run.Generation != 0 || f.run.ClockMHz != 0 {
		return fmt.Errorf("-gen and -clock select the -spec curve; without -spec the paper's three curves run at the paper's clocks")
	}
	for _, c := range paperdata.Fig8 {
		pts, err := aanoc.Fig8(c.App, c.Gen, c.ClockMHz, o)
		if err != nil {
			return err
		}
		printCurve(fmt.Sprintf("%s, DDR%d @ %d MHz", c.App, c.Gen, c.ClockMHz), pts)
		fmt.Fprintln(stdout)
	}
	return nil
}
