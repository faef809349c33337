package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"aanoc/internal/scenario"
	"aanoc/internal/system"
	"aanoc/internal/trace"
)

const traceUsage = `aanoc trace captures a memory-request trace from one simulation and
replays it through other designs — controlled comparisons on identical
workloads, and the entry point for users who want to evaluate the
designs on their own traces (JSON lines; see internal/trace for the
schema).

  aanoc trace -record t.jsonl -app bluray -gen 2 -design '[4]'
  aanoc trace -replay t.jsonl -app bluray -gen 2 -design GSS+SAGM
  aanoc trace -replay t.jsonl -app bluray -gen 2 -all
`

func traceCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	f := newFlags("trace", traceUsage, stderr, scenario.Run{Generation: 2, Cycles: 100_000, PriorityDemand: true},
		"app", "spec", "gen", "cycles", "seed", "priority", "checked")
	var (
		record = f.String("record", "", "capture a trace to this file")
		replay = f.String("replay", "", "replay a trace from this file")
		design = f.String("design", "GSS", designUsage)
		all    = f.Bool("all", false, "replay through every design")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	if (*record == "") == (*replay == "") {
		return fmt.Errorf("exactly one of -record or -replay is required")
	}
	_, base, err := f.resolve()
	if err != nil {
		return err
	}
	base.Checked = f.checked
	// Recording captures one design; only a replay fans out with -all.
	ds, err := designs(*design, *all && *replay != "")
	if err != nil {
		return err
	}
	v := violations{stderr: stderr}

	if *record != "" {
		out, err := os.Create(*record)
		if err != nil {
			return err
		}
		w := trace.NewWriter(out)
		base.Design = ds[0]
		base.Trace = w
		res, err := system.Run(base)
		if err == nil {
			err = w.Flush()
		}
		// A close can report a write the OS deferred, so it is checked.
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "recorded %d requests from %s on %s/%s (util %.3f) to %s\n",
			w.Count(), ds[0], res.App, res.Gen, res.Utilization, *record)
		v.report(ds[0].String(), res.Obs.Violations)
		return v.err()
	}

	in, err := os.Open(*replay)
	if err != nil {
		return err
	}
	base.Replay, err = trace.Read(in)
	in.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replaying %d recorded requests\n", len(base.Replay))
	fmt.Fprintf(stdout, "%-14s %8s %10s %10s %10s\n", "design", "util", "lat-all", "lat-pri", "completed")
	for _, d := range ds {
		base.Design = d
		res, err := system.Run(base)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-14s %8.3f %10.0f %10.0f %10d\n",
			d, res.Utilization, res.LatAll, res.LatPriority, res.Completed)
		v.report(d.String(), res.Obs.Violations)
	}
	return v.err()
}
