package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"aanoc/internal/scenario"
	"aanoc/internal/system"
)

const genUsage = `aanoc gen generates seeded random scenario specs (internal/scenario) and
optionally runs them through the simulator with the statistical
calibration layer attached. It is both a user tool (emit a spec, edit
it, feed it to aanoc sim -spec) and the CI scenario-matrix driver: -n
seeded scenarios, each run in checked mode and calibrated against its
own declared distributions, exit status 2 on any invariant violation or
calibration miss.

  aanoc gen -seed 42                       # one spec on stdout
  aanoc gen -n 20 -seed 7 -out specs/      # twenty spec files
  aanoc gen -n 50 -seed 7 -run -cycles 20000 -checked
  aanoc gen -mesh-min 16 -mesh-max 16 -run # one large-mesh scenario
`

func genCmd(_ context.Context, args []string, stdout, stderr io.Writer) error {
	// -cycles 0 keeps each spec's own default.
	f := newFlags("gen", genUsage, stderr, scenario.Run{}, "cycles", "checked")
	var (
		n        = f.Int("n", 1, "number of scenarios (seeds seed, seed+1, ...)")
		seed     = f.Uint64("seed", 1, "base generator seed")
		meshMin  = f.Int("mesh-min", 0, "minimum mesh side length (0: generator default)")
		meshMax  = f.Int("mesh-max", 0, "maximum mesh side length (0: generator default)")
		maxPorts = f.Int("max-ports", 0, "maximum memory ports (0: generator default)")
		outDir   = f.String("out", "", "write specs as <name>.json into this directory (default: stdout)")
		run      = f.Bool("run", false, "run each scenario and calibrate it instead of emitting specs")
		design   = f.String("design", "GSS+SAGM", "design under test with -run")
	)
	if err := f.parse(args); err != nil {
		return err
	}
	opts := scenario.GenOptions{MeshMin: *meshMin, MeshMax: *meshMax, MaxPorts: *maxPorts}

	var d system.Design
	if *run {
		var err error
		if d, err = system.ParseDesign(*design); err != nil {
			return err
		}
	}

	v := violations{stderr: stderr}
	for i := 0; i < *n; i++ {
		sp := scenario.Generate(*seed+uint64(i), opts)
		if !*run {
			if err := emit(sp, *outDir, stdout); err != nil {
				return err
			}
			continue
		}
		cfg, err := sp.SystemConfig(f.run)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		cfg.Design = d
		cfg.Checked = f.checked
		cfg.WorkloadStats = true
		res, err := system.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		misses := scenario.Calibrate(sp, res.Obs)
		fmt.Fprintf(stdout, "%-14s %dx%d cores=%-3d ports=%d chan=%d gen=%d sched=%-9s util=%.3f done=%-7d misses=%d\n",
			sp.Name, sp.Mesh.Width, sp.Mesh.Height, len(sp.Cores), len(sp.MemPorts),
			cfg.Channels, cfg.Gen, cfg.Scheduler, res.Utilization, res.Completed, len(misses))
		for _, m := range misses {
			v.failed = true
			fmt.Fprintf(stderr, "aanoc: %s: calibration miss: %s\n", sp.Name, m)
		}
		v.report(sp.Name, res.Obs.Violations)
	}
	return v.err()
}

// emit writes one spec: to <dir>/<name>.json, or to stdout when no
// directory was given.
func emit(sp *scenario.Spec, dir string, stdout io.Writer) error {
	if dir == "" {
		return sp.WriteJSON(stdout)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, sp.Name+".json"), buf.Bytes(), 0o644)
}
