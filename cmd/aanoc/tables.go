package main

import (
	"context"
	"fmt"
	"io"

	"aanoc"
	"aanoc/internal/scenario"
)

const tablesUsage = `aanoc tables regenerates the paper's Tables I, II and III: memory
utilization and per-class request latency for every design, application
and DDR generation.

  aanoc tables -table 1 -cycles 500000   # Table I (no priority requests)
  aanoc tables -table 2                  # Table II (priority demand)
  aanoc tables -table 3                  # Table III (STI on DDR3)
  aanoc tables -table sched              # scheduler zoo vs GSS+SAGM default
  aanoc tables -table all                # the paper tables (1, 2, 3)
  aanoc tables -table 1 -json rows.json  # machine-readable sidecar
  aanoc tables -table all -store DIR     # persist/reuse results on disk

-json writes every row: headline metrics plus the per-run observability
report (internal/obs). With -spec the tables run on the spec's platform
instead of the builtin applications.
`

func tablesCmd(_ context.Context, args []string, stdout, stderr io.Writer) (err error) {
	f := newFlags("tables", tablesUsage, stderr, scenario.Run{Cycles: 200_000},
		"spec", "cycles", "seed", "parallel", "progress", "json", "checked", "store", "cpuprofile", "memprofile")
	table := f.String("table", "all", "which table to print: 1, 2, 3, sched or all")
	if err := f.parse(args); err != nil {
		return err
	}
	if err := oneOf("table", *table, "1", "2", "3", "sched", "all"); err != nil {
		return err
	}
	stopProf, err := f.startProfiles()
	if err != nil {
		return err
	}
	defer stopProf(&err)
	o, err := f.tableOptions(stderr)
	if err != nil {
		return err
	}
	if f.spec != "" {
		if o.Spec, err = aanoc.LoadSpec(f.spec); err != nil {
			return err
		}
	}
	sidecar := map[string][]aanoc.Row{}
	v := violations{stderr: stderr}
	for _, d := range tableDrivers {
		// -table all regenerates the paper's tables; the scheduler grid is
		// an extension and runs only by name, keeping the default output
		// stable.
		if *table != d.key && (*table != "all" || d.key == "sched") {
			continue
		}
		fmt.Fprintf(stdout, "=== %s — %s (%d cycles/run) ===\n", d.name, d.note, f.cycles())
		rows, err := d.run(o)
		if err != nil {
			return err
		}
		if d.format != nil {
			fmt.Fprint(stdout, d.format(rows))
		} else {
			fmt.Fprint(stdout, aanoc.FormatRows(rows))
			printRatios(stdout, rows)
		}
		fmt.Fprintln(stdout)
		sidecar["table"+d.key] = rows
		v.reportRows(d.name, rows)
	}
	if err := f.writeSidecar(stdout, sidecar); err != nil {
		return err
	}
	return v.err()
}

// tableDrivers are the grids tables can print. A nil format selects the
// paper-table layout plus the per-design ratio summary.
var tableDrivers = []struct {
	key, name, note string
	run             func(aanoc.TableOptions) ([]aanoc.Row, error)
	format          func([]aanoc.Row) string
}{
	{"1", "Table I", "no priority memory requests (best-effort demand)", aanoc.TableI, nil},
	{"2", "Table II", "demand requests served as priority packets", aanoc.TableII, nil},
	{"3", "Table III", "GSS+SAGM+STI vs GSS+SAGM on DDR III", aanoc.TableIII, nil},
	{"sched", "Schedulers", "memory-scheduler zoo vs the GSS+SAGM default", aanoc.TableSchedulers, aanoc.FormatSchedulerRows},
}

// printRatios prints, per design, the averages and the ratio against the
// [4] (or first) design — the paper's summary rows.
func printRatios(w io.Writer, rows []aanoc.Row) {
	type acc struct {
		util, useful, lat, dem, pri float64
		n                           int
	}
	byDesign := map[aanoc.Design]*acc{}
	var order []aanoc.Design
	for _, r := range rows {
		a := byDesign[r.Design]
		if a == nil {
			a = &acc{}
			byDesign[r.Design] = a
			order = append(order, r.Design)
		}
		a.util += r.Utilization
		a.useful += r.UsefulUtilization
		a.lat += r.LatAll
		a.dem += r.LatDemand
		a.pri += r.LatPriority
		a.n++
	}
	base := byDesign[order[0]]
	for _, d := range order {
		if d == aanoc.SDRAMAware || d == aanoc.SDRAMAwarePFS {
			base = byDesign[d]
		}
	}
	fmt.Fprintf(w, "-- averages (ratio vs %s-style baseline where applicable)\n", "[4]")
	for _, d := range order {
		a := byDesign[d]
		n := float64(a.n)
		fmt.Fprintf(w, "   %-14s util=%.3f (%.3f) useful=%.3f lat-all=%.0f (%.3f) lat-dem=%.0f (%.3f)\n",
			d, a.util/n, ratio(a.util, base.util), a.useful/n,
			a.lat/n, ratio(a.lat, base.lat), a.dem/n, ratio(a.dem, base.dem))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
