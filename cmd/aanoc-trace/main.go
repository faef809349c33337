// Command aanoc-trace captures a memory-request trace from one
// simulation and replays it through other designs — controlled
// comparisons on identical workloads, and the entry point for users who
// want to evaluate the designs on their own traces (JSON lines; see
// internal/trace for the schema).
//
//	aanoc-trace -record t.jsonl -app bluray -gen 2 -design '[4]'
//	aanoc-trace -replay t.jsonl -app bluray -gen 2 -design GSS+SAGM
//	aanoc-trace -replay t.jsonl -app bluray -gen 2 -all
package main

import (
	"flag"
	"fmt"
	"os"

	"aanoc/internal/obs"
	"aanoc/internal/scenario"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

func main() {
	var (
		record   = flag.String("record", "", "capture a trace to this file")
		replay   = flag.String("replay", "", "replay a trace from this file")
		appName  = flag.String("app", "bluray", "application model")
		specPath = flag.String("spec", "", "scenario spec file (JSON); replaces -app, explicit flags override the spec's run block")
		gen      = flag.Int("gen", 2, "DDR generation")
		design   = flag.String("design", "GSS", "design under test")
		all      = flag.Bool("all", false, "replay through every design")
		cycles   = flag.Int64("cycles", 100_000, "simulated cycles")
		seed     = flag.Uint64("seed", 0, "RNG seed")
		priority = flag.Bool("priority", true, "serve demand requests as priority packets")
		checked  = flag.Bool("checked", false, "run under the invariant layer (internal/check); violations go to stderr and exit status 2")
	)
	flag.Parse()
	if (*record == "") == (*replay == "") {
		fatal(fmt.Errorf("exactly one of -record or -replay is required"))
	}
	// Both entry points funnel through scenario.Resolve, the same
	// validation path the facade uses.
	base, err := scenario.ResolveFlags(flag.CommandLine, *specPath, *appName, scenario.Run{
		Generation: *gen, Cycles: *cycles, Seed: *seed,
		PriorityDemand: *priority,
	})
	if err != nil {
		fatal(err)
	}
	base.Checked = *checked

	if *record != "" {
		d, err := system.ParseDesign(*design)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*record)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w := trace.NewWriter(f)
		cfg := base
		cfg.Design = d
		cfg.Trace = w
		res, err := system.Run(cfg)
		if err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		fmt.Printf("recorded %d requests from %s on %s/%s (util %.3f) to %s\n",
			w.Count(), d, res.App, res.Gen, res.Utilization, *record)
		if complain(res.Obs.Violations, d) {
			os.Exit(2)
		}
		return
	}

	f, err := os.Open(*replay)
	if err != nil {
		fatal(err)
	}
	records, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %d recorded requests\n", len(records))
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
	fmt.Printf("%-14s %8s %10s %10s %10s\n", "design", "util", "lat-all", "lat-pri", "completed")
	violated := false
	for _, d := range designs {
		cfg := base
		cfg.Design = d
		cfg.Replay = records
		res, err := system.Run(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-14s %8.3f %10.0f %10.0f %10d\n",
			d, res.Utilization, res.LatAll, res.LatPriority, res.Completed)
		if complain(res.Obs.Violations, d) {
			violated = true
		}
	}
	if violated {
		os.Exit(2)
	}
}

// complain reports a run's invariant violations on stderr; stdout stays
// byte-identical to an unchecked run.
func complain(vs []obs.Violation, d system.Design) bool {
	if len(vs) == 0 {
		return false
	}
	fmt.Fprintf(os.Stderr, "aanoc-trace: %d invariant violation(s) on %s:\n%s",
		len(vs), d, obs.SummarizeViolations(vs, 20))
	return true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aanoc-trace:", err)
	os.Exit(1)
}
