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

// Checker collects invariant violations for one simulation run.
type Checker struct {
	// Limit caps the collected violations (0 selects DefaultLimit); a
	// systematically broken run would otherwise accumulate one record
	// per cycle. Dropped counts the overflow.
	Limit   int
	Dropped int64

	violations []obs.Violation
}

// DefaultLimit bounds collected violations per run.
const DefaultLimit = 100

// Reportf records a violation, or only counts it once past the limit.
func (c *Checker) Reportf(cycle int64, component, kind, format string, args ...any) {
	limit := c.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	if len(c.violations) >= limit {
		c.Dropped++
		return
	}
	c.violations = append(c.violations, obs.Violation{
		Cycle: cycle, Component: component, Kind: kind,
		Detail: fmt.Sprintf(format, args...),
	})
}

// Violations returns the collected violations (nil when clean).
func (c *Checker) Violations() []obs.Violation { return c.violations }

// Count returns the number of violations recorded, including dropped
// ones.
func (c *Checker) Count() int64 { return int64(len(c.violations)) + c.Dropped }
