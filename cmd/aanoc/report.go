package main

import (
	"context"
	"fmt"
	"io"

	"aanoc"
	"aanoc/internal/paperdata"
	"aanoc/internal/scenario"
)

const reportUsage = `aanoc report runs the complete evaluation and emits a markdown
paper-vs-measured report: for every table and figure of the paper it
prints the published values alongside this reproduction's measurements
and the derived ratios the paper's claims rest on. EXPERIMENTS.md is
this tool's output plus hand-written analysis.

  aanoc report -cycles 200000 > report.md
  aanoc report -json rows.json > report.md   # machine-readable sidecar

-json writes the measured rows behind Tables I-III: headline metrics
plus the per-run observability reports (internal/obs).
`

func reportCmd(_ context.Context, args []string, w, stderr io.Writer) error {
	f := newFlags("report", reportUsage, stderr, scenario.Run{Cycles: 200_000}, "cycles", "seed", "parallel", "json", "checked")
	if err := f.parse(args); err != nil {
		return err
	}
	o, err := f.tableOptions(stderr)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "# Paper vs. measured (%d cycles per run)\n\n", f.cycles())
	fmt.Fprintln(w, "Latencies are in memory-clock cycles. `paper` columns are the")
	fmt.Fprintln(w, "published values; `ours` columns are this reproduction. Our latency")
	fmt.Fprintln(w, "is measured from network entry to completion under a saturated")
	fmt.Fprintln(w, "open-loop workload, so absolute cycle counts are larger than the")
	fmt.Fprintln(w, "paper's; the comparisons that matter are the per-design ratios.")
	fmt.Fprintln(w)

	sidecar := map[string][]aanoc.Row{}
	v := violations{stderr: stderr}
	for _, tbl := range []struct {
		key   string
		run   func(aanoc.TableOptions) ([]aanoc.Row, error)
		print func(io.Writer, []aanoc.Row)
	}{
		{"table1", aanoc.TableI, func(w io.Writer, rows []aanoc.Row) {
			comparisonTable(w, "Table I — no priority memory requests", paperdata.TableI, paperdata.TableIDesigns, rows, "lat-dem")
		}},
		{"table2", aanoc.TableII, func(w io.Writer, rows []aanoc.Row) {
			comparisonTable(w, "Table II — priority memory requests", paperdata.TableII, paperdata.TableIIDesigns, rows, "lat-pri")
		}},
		{"table3", aanoc.TableIII, tableIII},
	} {
		rows, err := tbl.run(o)
		if err != nil {
			return err
		}
		tbl.print(w, rows)
		sidecar[tbl.key] = rows
		v.reportRows(tbl.key, rows)
	}
	if err := reportFig8(w, o); err != nil {
		return err
	}
	tableIV(w)
	if err := tableV(w, o); err != nil {
		return err
	}
	if err := f.writeSidecar(w, sidecar); err != nil {
		return err
	}
	return v.err()
}

// comparisonTable prints one paper table beside the measured rows, then
// the per-design average ratios against the [4]-style column (index 1).
func comparisonTable(w io.Writer, title string, entries []paperdata.Entry, designs [4]string, rows []aanoc.Row, demandLabel string) {
	byKey := map[string]aanoc.Row{}
	for _, r := range rows {
		byKey[fmt.Sprintf("%s/%d/%s", r.App, r.Gen, r.Design)] = r
	}
	fmt.Fprintf(w, "## %s\n\n", title)
	fmt.Fprintf(w, "| app | DDR | design | util paper | util ours | lat-all paper | lat-all ours | %s paper | %s ours |\n", demandLabel, demandLabel)
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|")
	var ours [4]struct{ u, useful, l, d float64 }
	for _, e := range entries {
		for i, d := range designs {
			r, ok := byKey[fmt.Sprintf("%s/%d/%s", e.App, e.Gen, d)]
			if !ok {
				continue
			}
			dem := r.LatDemand
			if demandLabel == "lat-pri" {
				dem = r.LatPriority
			}
			fmt.Fprintf(w, "| %s | %d | %s | %.3f | %.3f | %.0f | %.0f | %.0f | %.0f |\n",
				e.App, e.Gen, d, e.Cells[i].Util, r.Utilization,
				e.Cells[i].LatAll, r.LatAll, e.Cells[i].LatDem, dem)
			ours[i].u += r.Utilization
			ours[i].useful += r.UsefulUtilization
			ours[i].l += r.LatAll
			ours[i].d += dem
		}
	}
	fmt.Fprintln(w)
	pu, pl, pd := paperdata.AverageRatios(entries, 1)
	fmt.Fprintln(w, "Average ratios against the `[4]`-style column:")
	fmt.Fprintln(w)
	fmt.Fprintf(w, "| design | util paper | util ours | useful-util ours | lat-all paper | lat-all ours | %s paper | %s ours |\n", demandLabel, demandLabel)
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for i, d := range designs {
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f | %.3f |\n",
			d, pu[i], ours[i].u/ours[1].u, ours[i].useful/ours[1].useful,
			pl[i], ours[i].l/ours[1].l, pd[i], ours[i].d/ours[1].d)
	}
	fmt.Fprintln(w)
}

func tableIII(w io.Writer, rows []aanoc.Row) {
	fmt.Fprintln(w, "## Table III — GSS+SAGM+STI vs GSS+SAGM (DDR3, tag-every-request)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| app | MHz | util imp. paper | util imp. ours | lat-all imp. paper | lat-all imp. ours | lat-pri imp. paper | lat-pri imp. ours |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
	for i, p := range paperdata.TableIII {
		base, sti := rows[2*i], rows[2*i+1]
		fmt.Fprintf(w, "| %s | %d | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% |\n",
			p.App, p.ClockMHz,
			100*p.UtilImp, 100*(sti.Utilization/base.Utilization-1),
			100*p.LatAllImp, 100*(1-sti.LatAll/base.LatAll),
			100*p.LatPriImp, 100*(1-sti.LatPriority/base.LatPriority))
	}
	fmt.Fprintln(w)
}

func reportFig8(w io.Writer, o aanoc.TableOptions) error {
	fmt.Fprintln(w, "## Fig. 8 — performance vs. number of GSS routers")
	fmt.Fprintln(w)
	for _, p := range paperdata.Fig8 {
		pts, err := aanoc.Fig8(p.App, p.Gen, p.ClockMHz, o)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "### %s, DDR%d @ %d MHz\n\n", p.App, p.Gen, p.ClockMHz)
		fmt.Fprintln(w, "| k | util ours | lat-all ours | lat-pri ours |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for k, pt := range pts {
			fmt.Fprintf(w, "| %d | %.3f | %.0f | %.0f |\n", k, pt.Utilization, pt.LatAll, pt.LatPriority)
		}
		k0, k3 := pts[0], pts[3]
		fmt.Fprintf(w, "\nPaper endpoints: util %.2f->%.2f (k=0->3); ours %.3f->%.3f. ",
			p.Util0, p.Util3, k0.Utilization, k3.Utilization)
		fmt.Fprintf(w, "Gain captured by three routers: paper %.0f%%, ours %.0f%%.\n\n",
			100*(p.Util3-p.Util0)/p.Util0,
			100*(k3.Utilization-k0.Utilization)/k0.Utilization)
	}
	return nil
}

func tableIV(w io.Writer) {
	fmt.Fprintln(w, "## Table IV — gate counts at 400 MHz (analytic model)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| design | module | paper | ours | error |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	ours := aanoc.TableIV()
	for i, p := range paperdata.Table4 {
		r := ours[i]
		row := func(name string, pv, ov int64) {
			fmt.Fprintf(w, "| %s | %s | %d | %d | %+.1f%% |\n", p.Design, name, pv, ov, 100*(float64(ov)/float64(pv)-1))
		}
		row("flow controller", p.FlowController, r.FlowController)
		row("router", p.Router, r.Router)
		row("memory subsystem", p.MemorySubsystem, r.MemorySubsystem)
		row("3x3 NoC", p.NoC3x3, r.NoC3x3)
	}
	fmt.Fprintln(w)
}

func tableV(w io.Writer, o aanoc.TableOptions) error {
	rows, err := aanoc.TableV(o)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "## Table V — average power (activity-based model)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| app | MHz | design | paper (mW) | ours (mW) | paper ratio | ours ratio |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for i, p := range paperdata.Table5 {
		r := rows[i]
		group := i / 3 * 3
		fmt.Fprintf(w, "| %s | %d | %s | %.1f | %.1f | %.3f | %.3f |\n",
			p.App, p.ClockMHz, p.Design, p.PowerMW, r.PowerMW,
			p.PowerMW/paperdata.Table5[group+2].PowerMW, r.PowerMW/rows[group+2].PowerMW)
	}
	fmt.Fprintln(w)
	return nil
}
