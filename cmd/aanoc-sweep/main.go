// Command aanoc-sweep runs ablation grids over the design parameters the
// paper (and DESIGN.md) call out — the PCT hybrid setting, the SAGM split
// granularity, the page policy, and the number of GSS routers — and
// emits CSV for plotting. Grid points fan out across -parallel workers;
// rows are emitted in grid order regardless of completion order, so the
// CSV is byte-identical at any worker count.
//
//	aanoc-sweep -sweep pct -app bluray -gen 2 > pct.csv
//	aanoc-sweep -sweep granularity -gen 2
//	aanoc-sweep -sweep pagepolicy -gen 2
//	aanoc-sweep -sweep gss-routers -app sdtv -gen 1 -parallel 8
//	aanoc-sweep -sweep scheduler -app bluray -gen 2 > sched.csv
//	aanoc-sweep -sweep pct -json pct.json > pct.csv
//	aanoc-sweep -sweep scheduler -store /var/cache/aanoc > sched.csv
//
// -json writes each grid point's observability report (internal/obs)
// to a file; the CSV on stdout is byte-identical with or without it.
// -store persists every point's result in the content-addressed result
// store: rerunning the same sweep against a populated store simulates
// nothing (stderr reports "store: N hits, 0 simulated") and emits
// byte-identical CSV.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strconv"

	"aanoc/internal/memctrl"
	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/store"
	"aanoc/internal/sweep"
	"aanoc/internal/system"
)

func main() {
	var (
		sweepName = flag.String("sweep", "pct", "pct | granularity | pagepolicy | gss-routers | channels | scheduler")
		appName   = flag.String("app", "bluray", "application model")
		specPath  = flag.String("spec", "", "scenario spec file (JSON); replaces -app, explicit flags override the spec's run block")
		gen       = flag.Int("gen", 2, "DDR generation")
		cycles    = flag.Int64("cycles", 120_000, "simulated cycles per point")
		seed      = flag.Uint64("seed", 0, "RNG seed")
		priority  = flag.Bool("priority", true, "serve demand requests as priority packets")
		channels  = flag.Int("channels", 1, "independent SDRAM channels (fixed; the channels sweep varies it instead)")
		scheme    = flag.String("chan-scheme", "bank-chan", "channel interleaving: bank-chan or chan-bank-xor")
		parallel  = flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent simulations (1 = serial); output is identical at any setting")
		jsonOut   = flag.String("json", "", "also write each point's obs report as JSON to this file")
		checked   = flag.Bool("checked", false, "run every grid point under the invariant layer (internal/check); violations go to stderr and exit status 2")
		storeDir  = flag.String("store", "", "persistent result-store directory: points already stored are served from disk, fresh results are written back; the CSV is byte-identical either way")
	)
	flag.Parse()

	// Interrupts cancel the grid: in-flight points abandon within one
	// kernel epoch and unstarted points never run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Both entry points funnel through scenario.Resolve, the same
	// validation path the facade uses.
	base, err := scenario.ResolveFlags(flag.CommandLine, *specPath, *appName, scenario.Run{
		Generation: *gen, Channels: *channels, Scheme: *scheme,
		Cycles: *cycles, Seed: *seed, PriorityDemand: *priority,
	})
	if err != nil {
		fatal(err)
	}
	app := base.App
	base.Checked = *checked

	// Build the grid: one label + config per point, in emission order.
	var points []string
	var cfgs []system.Config
	add := func(point string, cfg system.Config) {
		points = append(points, point)
		cfgs = append(cfgs, cfg)
	}
	switch *sweepName {
	case "pct":
		for pct := 1; pct <= 5; pct++ {
			cfg := base
			cfg.Design = system.GSS
			cfg.PCT = pct
			add(fmt.Sprintf("pct=%d", pct), cfg)
		}
	case "granularity":
		for _, g := range []int{2, 4, 8, 16, 32} {
			cfg := base
			cfg.Design = system.GSSSAGM
			cfg.SplitGranularity = g
			add(fmt.Sprintf("beats=%d", g), cfg)
		}
	case "pagepolicy":
		for _, p := range []memctrl.PagePolicy{memctrl.OpenPage, memctrl.PartialOpenPage, memctrl.ClosedPage} {
			cfg := base
			cfg.Design = system.GSSSAGM
			policy := p
			cfg.PagePolicy = &policy
			add(p.String(), cfg)
		}
	case "gss-routers":
		max := app.Width * app.Height
		for k := 0; k <= max; k++ {
			cfg := base
			cfg.Design = system.GSSSAGM
			cfg.GSSRouters = k
			if k == 0 {
				cfg.GSSRouters = -1
			}
			add(fmt.Sprintf("k=%d", k), cfg)
		}
	case "scheduler":
		// One point per zoo member: what the bounded/regulated/staged
		// guarantees cost against the design's own controller.
		for _, s := range memctrl.Schedulers() {
			cfg := base
			cfg.Design = system.GSSSAGM
			cfg.Scheduler = s
			add("sched="+s.String(), cfg)
		}
	case "channels":
		// One point per supported channel count: how much bandwidth each
		// additional channel buys the scaled apps.
		for k := 1; k <= len(app.Ports()); k++ {
			cfg := base
			cfg.Design = system.GSSSAGM
			cfg.Channels = k
			add(fmt.Sprintf("chan=%d", k), cfg)
		}
	default:
		fatal(fmt.Errorf("unknown sweep %q", *sweepName))
	}

	opts := sweep.Options{Workers: *parallel, Context: ctx}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			fatal(err)
		}
		opts.Store = st
	}
	pointResults, stats := sweep.Run(cfgs, opts)
	if err := sweep.FirstErr(pointResults); err != nil {
		fatal(err)
	}
	results := make([]system.Result, len(pointResults))
	for i, r := range pointResults {
		results[i] = r.Res
	}
	if *storeDir != "" {
		// The parity line CI asserts on: a second identical sweep against
		// a populated store simulates nothing.
		fmt.Fprintf(os.Stderr, "aanoc-sweep: store: %d hits, %d simulated\n",
			stats.StoreHits, stats.Runs)
	}

	violated := false
	for i, res := range results {
		if len(res.Obs.Violations) > 0 {
			violated = true
			fmt.Fprintf(os.Stderr, "aanoc-sweep: %s:\n%s",
				points[i], obs.SummarizeViolations(res.Obs.Violations, 10))
		}
	}

	w := csv.NewWriter(os.Stdout)
	head := []string{"point", "util", "useful_util", "lat_all", "lat_priority", "lat_best", "waste_frac", "completed"}
	if err := w.Write(head); err != nil {
		fatal(err)
	}
	for i, res := range results {
		rec := []string{
			points[i],
			fmt.Sprintf("%.4f", res.Utilization),
			fmt.Sprintf("%.4f", res.Utilization*(1-res.WasteFrac)),
			fmt.Sprintf("%.1f", res.LatAll),
			fmt.Sprintf("%.1f", res.LatPriority),
			fmt.Sprintf("%.1f", res.LatBest),
			fmt.Sprintf("%.4f", res.WasteFrac),
			strconv.FormatInt(res.Completed, 10),
		}
		if err := w.Write(rec); err != nil {
			fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fatal(err)
	}
	if *jsonOut != "" {
		type pointReport struct {
			Point string      `json:"point"`
			Obs   *obs.Report `json:"obs"`
		}
		side := make([]pointReport, len(results))
		for i, res := range results {
			side[i] = pointReport{Point: points[i], Obs: res.Obs}
		}
		data, err := obs.EncodeSidecar(side)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fatal(err)
		}
	}
	if violated {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aanoc-sweep:", err)
	os.Exit(1)
}
