// Package check is the runtime invariant layer of the reproduction: a
// set of conformance monitors and conservation audits that re-validate,
// from independently maintained shadow state, the properties the paper's
// evaluation rests on — JEDEC command legality at the DRAM device,
// credit/flit conservation in the meshes, token bounds in the GSS
// engine, and end-of-run request accounting.
//
// The layer is enabled per run by system.Config.Checked (and the
// -checked flag on the CLIs) and costs nothing when off: the simulator
// carries one nil pointer it never touches. When on, violations
// accumulate into the run's observability report as obs.Violation
// records, each naming its cycle, so a grid can finish and report every
// breach. The per-cycle audits observe the cycles the kernel visits, so
// a checked run takes the unchecked run's schedule.
//
// The monitors deliberately do not reuse the fast path's own legality
// logic: the DRAM monitor keeps its own per-bank timing state and
// re-derives every constraint, so a bug in Device.CanIssue (or a
// controller bypassing it) cannot self-certify.
package check

import (
	"fmt"

	"aanoc/internal/obs"
)

// Checker collects invariant violations for one simulation run. It
// records the first DefaultLimit — a systematically broken run would
// otherwise accumulate one record per cycle — and counts the rest.
type Checker struct {
	violations []obs.Violation
	dropped    int64
}

// DefaultLimit bounds the violations recorded per run.
const DefaultLimit = 100

// Reportf records a violation, or only counts it once past the limit.
func (c *Checker) Reportf(cycle int64, component, kind, format string, args ...any) {
	if len(c.violations) >= DefaultLimit {
		c.dropped++
		return
	}
	c.violations = append(c.violations, obs.Violation{
		Cycle: cycle, Component: component, Kind: kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the recorded violations (nil when clean), ended,
// when the limit dropped any, by an obs.Dropped entry naming how many.
func (c *Checker) Violations() []obs.Violation {
	if c.dropped == 0 {
		return c.violations
	}
	return append(c.violations[:len(c.violations):len(c.violations)], obs.Dropped(c.dropped))
}
