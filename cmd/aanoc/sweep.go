package main

import (
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"aanoc/internal/appmodel"
	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

const sweepUsage = `aanoc sweep runs ablation grids over the design parameters the paper (and
DESIGN.md) call out — the PCT hybrid setting, the SAGM split
granularity, the page policy, the number of GSS routers — and emits CSV
for plotting. Grid points fan out across -parallel workers; rows are
emitted in grid order regardless of completion order, so the CSV is
byte-identical at any worker count.

-sweep load scales every open-loop stream's offered load by f = 0.20 to
1.20 in steps of 0.05 for CONV, [4] and GSS+SAGM: each design's
load-latency curve. stderr names each design's knee, the first f whose
completed requests fall below the previous f's.

  aanoc sweep -sweep pct -app bluray -gen 2 > pct.csv
  aanoc sweep -sweep load -app bluray -gen 2 -priority=false > load.csv
  aanoc sweep -sweep granularity -gen 2
  aanoc sweep -sweep pagepolicy -gen 2
  aanoc sweep -sweep gss-routers -app sdtv -gen 1 -parallel 8
  aanoc sweep -sweep scheduler -app bluray -gen 2 > sched.csv
  aanoc sweep -sweep pct -json pct.json > pct.csv
  aanoc sweep -sweep scheduler -store /var/cache/aanoc > sched.csv

-json writes each grid point's observability report (internal/obs).
Rerunning a sweep against a populated -store simulates nothing (stderr
reports "store: N hits, 0 simulated") and emits byte-identical CSV.
`

var sweepNames = []string{"pct", "granularity", "pagepolicy", "gss-routers", "channels", "scheduler", "load"}

// The load sweep's grid: f = k/20 for k from loadLo to loadHi, for each
// of loadDesigns. Counting in twentieths keeps every f exact to print.
const loadLo, loadHi = 4, 24

var loadDesigns = []system.Design{system.Conv, system.SDRAMAware, system.GSSSAGM}

func sweepCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	f := newFlags("sweep", sweepUsage, stderr,
		scenario.Run{Generation: 2, Channels: 1, Scheme: "bank-chan", Cycles: 120_000, PriorityDemand: true},
		"app", "spec", "gen", "cycles", "seed", "priority", "channels", "chan-scheme", "parallel", "json", "checked", "store")
	sweepName := f.String("sweep", "pct", "the swept parameter: "+strings.Join(sweepNames, " | "))
	if err := f.parse(args); err != nil {
		return err
	}
	if err := oneOf("sweep", *sweepName, sweepNames...); err != nil {
		return err
	}
	_, base, err := f.resolve()
	if err != nil {
		return err
	}
	app := base.App
	base.Checked = f.checked

	// Build the grid: one label + config per point, in emission order.
	var points []string
	var cfgs []system.Config
	add := func(point string, d system.Design, set func(*system.Config)) {
		cfg := base
		cfg.Design = d
		set(&cfg)
		points = append(points, point)
		cfgs = append(cfgs, cfg)
	}
	switch *sweepName {
	case "pct":
		for pct := 1; pct <= 5; pct++ {
			add(fmt.Sprintf("pct=%d", pct), system.GSS, func(c *system.Config) { c.PCT = pct })
		}
	case "granularity":
		for _, beats := range []int{2, 4, 8, 16, 32} {
			add(fmt.Sprintf("beats=%d", beats), system.GSSSAGM, func(c *system.Config) { c.SplitGranularity = beats })
		}
	case "pagepolicy":
		for _, p := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.PartialOpenPage, memctrl.ClosedPage} {
			add(p.String(), system.GSSSAGM, func(c *system.Config) { c.PagePolicy = &p })
		}
	case "gss-routers":
		// 0 in Config means "all", so the zero-router point is -1.
		add("k=0", system.GSSSAGM, func(c *system.Config) { c.GSSRouters = -1 })
		for k := 1; k <= app.Width*app.Height; k++ {
			add(fmt.Sprintf("k=%d", k), system.GSSSAGM, func(c *system.Config) { c.GSSRouters = k })
		}
	case "scheduler":
		// One point per zoo member: what the bounded/regulated/staged
		// guarantees cost against the design's own controller.
		for _, sched := range memctrl.Schedulers() {
			add("sched="+sched.String(), system.GSSSAGM, func(c *system.Config) { c.Scheduler = sched })
		}
	case "channels":
		// One point per channel count the app's ports and the scheme
		// accept (chan-bank-xor takes powers of two only): how much
		// bandwidth each additional channel buys the scaled apps.
		for k := 1; k <= len(app.Ports()); k++ {
			cfg := base
			cfg.Channels = k
			if errors.Is(cfg.Validate(), system.ErrBadChannels) {
				continue
			}
			add(fmt.Sprintf("chan=%d", k), system.GSSSAGM, func(c *system.Config) { c.Channels = k })
		}
	case "load":
		// One curve per design, contiguous, in rising f.
		for _, d := range loadDesigns {
			for k := loadLo; k <= loadHi; k++ {
				add(fmt.Sprintf("%s f=%.2f", d, float64(k)/20), d, func(c *system.Config) { c.App = appmodel.WithLoad(app, float64(k)/20) })
			}
		}
	}

	opts := sweep.Options{Workers: f.parallel, Context: ctx}
	st, err := f.openStore()
	if err != nil {
		return err
	}
	if st != nil {
		opts.Store = st
	}
	results, stats := sweep.Run(cfgs, opts)
	if err := sweep.FirstErr(results); err != nil {
		return err
	}
	if st != nil {
		// The parity line CI asserts on: a second identical sweep against
		// a populated store simulates nothing.
		fmt.Fprintf(stderr, "aanoc sweep: store: %d hits, %d simulated\n", stats.StoreHits, stats.Runs)
	}

	type pointReport struct {
		Point string      `json:"point"`
		Obs   *obs.Report `json:"obs"`
	}
	side := make([]pointReport, len(results))
	v := violations{stderr: stderr}
	w := csv.NewWriter(stdout)
	if err := w.Write([]string{"point", "util", "useful_util", "lat_all", "lat_priority", "lat_best", "waste_frac", "completed", "lat_demand", "fairness"}); err != nil {
		return err
	}
	for i, r := range results {
		res := r.Res
		side[i] = pointReport{Point: points[i], Obs: res.Obs}
		v.report(points[i], res.Obs.Violations)
		rec := []string{
			points[i],
			fmt.Sprintf("%.4f", res.Utilization),
			fmt.Sprintf("%.4f", res.UsefulUtilization),
			fmt.Sprintf("%.1f", res.LatAll),
			fmt.Sprintf("%.1f", res.LatPriority),
			fmt.Sprintf("%.1f", res.LatBest),
			fmt.Sprintf("%.4f", res.WasteFrac),
			strconv.FormatInt(res.Completed, 10),
			fmt.Sprintf("%.1f", res.LatDemand),
			fmt.Sprintf("%.4f", res.Fairness),
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if err := f.writeSidecar(stdout, side); err != nil {
		return err
	}
	if *sweepName == "load" {
		printKnees(stderr, results)
	}
	return v.err()
}

// printKnees names each design's knee on the load sweep, by a rule fixed
// before any curve was looked at: the first f whose completed requests
// fall below the previous f's, where offering more gets less served.
func printKnees(stderr io.Writer, results []sweep.Result) {
	n := loadHi - loadLo + 1
	for i, d := range loadDesigns {
		curve := results[i*n : (i+1)*n]
		knee := fmt.Sprintf("none up to f=%.2f", float64(loadHi)/20)
		for j := 1; j < n; j++ {
			if done, prev := curve[j].Res.Completed, curve[j-1].Res.Completed; done < prev {
				k := loadLo + j
				knee = fmt.Sprintf("f=%.2f (completed %d, down from %d at f=%.2f)", float64(k)/20, done, prev, float64(k-1)/20)
				break
			}
		}
		fmt.Fprintf(stderr, "aanoc sweep: %s knee: %s\n", d, knee)
	}
}
