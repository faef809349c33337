package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"aanoc/internal/dram"
	"aanoc/internal/system"
)

// Fingerprint returns a canonical hash of the fully resolved
// configuration, and whether the configuration is cacheable at all.
// Two configs that resolve to the same simulation — e.g. one spelling a
// default explicitly (Cycles: 200000) and one leaving it zero — share a
// fingerprint, so a grid that revisits a point simulates it once.
//
// A config carrying a trace-capture Writer is not cacheable: capture is
// a side effect that must happen per run (and the writer is identity,
// not value). Neither is one with an injected device fault: its results
// are wrong on purpose and must never be persisted or served in place of
// a clean run's. NoIdleSkip is left out of the hash: results are
// identical with it on or off, so it must not split cache entries.
// Everything else in system.Config is pure input.
func Fingerprint(cfg system.Config) (string, bool) {
	if cfg.Trace != nil || cfg.Fault != dram.FaultNone {
		return "", false
	}
	c := cfg.Resolved()
	h := sha256.New()
	// The application model, in declaration order. Port 0 is written
	// twice, after "mem" and again in the port list: the bytes every
	// stored entry is keyed on. (A model with no ports hashes without
	// panicking; it fails Validate, so nothing is stored under it.)
	fmt.Fprintf(h, "app=%s/%dx%d/mem", c.App.Name, c.App.Width, c.App.Height)
	for i, p := range c.App.Ports() {
		if i == 0 {
			fmt.Fprintf(h, "%+v|", p)
		}
		fmt.Fprintf(h, "port=%+v|", p)
	}
	fmt.Fprintf(h, "chan=%d scheme=%d|", c.Channels, c.Scheme)
	for gen := dram.DDR1; gen <= dram.LPDDR3; gen++ {
		fmt.Fprintf(h, "clk%d=%d|", gen, c.App.Clocks.At(gen))
	}
	for _, core := range c.App.Cores {
		fmt.Fprintf(h, "core=%s@%+v|", core.Name, core.Pos)
		for _, s := range core.Streams {
			fmt.Fprintf(h, "stream=%+v|", s)
		}
	}
	// SampleEvery and Checked are part of the key although they never
	// perturb the simulation: a sampled run's Result carries the time
	// series and a checked run's report carries the Checked/Violations
	// fields, so neither may be served from (or into) a differently
	// configured point's cache entry.
	fmt.Fprintf(h,
		"gen=%d clk=%d design=%d sched=%d pct=%d gssr=%d pd=%t cyc=%d warm=%d seed=%d buf=%d vc=%d adapt=%t cap=%d pipe=%d split=%d tag=%t sample=%d chk=%t subs=%d|",
		c.Gen, c.ClockMHz, c.Design, c.Scheduler, c.PCT, c.GSSRouters, c.PriorityDemand,
		c.Cycles, c.Warmup, c.Seed, c.BufFlits, c.VirtualChannels,
		c.AdaptiveRouting, c.InjectCap, c.MemPipeline, c.SplitGranularity,
		c.TagEveryRequest, c.SampleEvery, c.Checked, c.Subarrays)
	// The spec hash ties a spec-driven run to its workload content; the
	// workload-stats flag shapes the report (like SampleEvery/Checked)
	// without perturbing the simulation, so it must split cache entries
	// the same way.
	fmt.Fprintf(h, "spec=%s wl=%t|", c.SpecHash, c.WorkloadStats)
	if c.PagePolicy != nil {
		fmt.Fprintf(h, "page=%d|", *c.PagePolicy)
	}
	fmt.Fprintf(h, "replay=%d|", len(c.Replay))
	for _, rec := range c.Replay {
		fmt.Fprintf(h, "rec=%+v|", rec)
	}
	return hex.EncodeToString(h.Sum(nil)), true
}
