// Package system assembles complete simulations: an application model's
// traffic generators inject memory request packets into a request mesh
// whose routers run the design's flow-control policy; a memory subsystem
// at the corner turns them into DDR commands; read responses return on a
// response mesh. One Run produces the paper's metrics (memory utilization
// and per-class request latency in memory-clock cycles).
package system

import "fmt"

// Design enumerates the seven NoC/memory design points of the evaluation.
type Design int

const (
	// Conv is the conventional design: round-robin routers, MemMax
	// thread-buffered scheduler + Databahn-style controller.
	Conv Design = iota
	// ConvPFS is Conv with priority-first service for demand packets in
	// routers and the memory scheduler.
	ConvPFS
	// SDRAMAware is the paper's reference [4]: SDRAM-aware routers
	// (the GSS engine at PCT=1, priority-equal) and the lightweight
	// in-order memory subsystem.
	SDRAMAware
	// SDRAMAwarePFS is [4]+PFS: the same engine at PCT=max
	// (priority-first).
	SDRAMAwarePFS
	// GSS is the paper's guaranteed-SDRAM-service router with a hybrid
	// PCT.
	GSS
	// GSSSAGM adds SDRAM access granularity matching: split packets,
	// BL4 / BL8-OTF device modes, partially-open-page with AP.
	GSSSAGM
	// GSSSAGMSTI additionally enables the short turn-around bank
	// interleaving filter (Fig. 4(b)).
	GSSSAGMSTI
)

// Designs lists all seven design points in evaluation order.
func Designs() []Design {
	return []Design{Conv, ConvPFS, SDRAMAware, SDRAMAwarePFS, GSS, GSSSAGM, GSSSAGMSTI}
}

// String returns the paper's name for the design.
func (d Design) String() string {
	switch d {
	case Conv:
		return "CONV"
	case ConvPFS:
		return "CONV+PFS"
	case SDRAMAware:
		return "[4]"
	case SDRAMAwarePFS:
		return "[4]+PFS"
	case GSS:
		return "GSS"
	case GSSSAGM:
		return "GSS+SAGM"
	case GSSSAGMSTI:
		return "GSS+SAGM+STI"
	default:
		return fmt.Sprintf("Design(%d)", int(d))
	}
}

// ParseDesign resolves a design from its paper name (case-sensitive) or a
// lowercase shorthand.
func ParseDesign(s string) (Design, error) {
	switch s {
	case "CONV", "conv":
		return Conv, nil
	case "CONV+PFS", "conv+pfs", "convpfs":
		return ConvPFS, nil
	case "[4]", "sdram-aware", "ref4":
		return SDRAMAware, nil
	case "[4]+PFS", "sdram-aware+pfs", "ref4pfs":
		return SDRAMAwarePFS, nil
	case "GSS", "gss":
		return GSS, nil
	case "GSS+SAGM", "gss+sagm", "sagm":
		return GSSSAGM, nil
	case "GSS+SAGM+STI", "gss+sagm+sti", "sti":
		return GSSSAGMSTI, nil
	}
	return 0, fmt.Errorf("system: unknown design %q", s)
}

// usesGSSEngine reports whether the request-mesh routers run the
// SDRAM-aware token engine (as opposed to conventional arbitration).
func (d Design) usesGSSEngine() bool { return d >= SDRAMAware }

// usesSAGM reports whether network interfaces split packets to the SDRAM
// access granularity.
func (d Design) usesSAGM() bool { return d == GSSSAGM || d == GSSSAGMSTI }

// usesSTI reports whether the Fig. 4(b) filter tree with bank idle
// counters is active.
func (d Design) usesSTI() bool { return d == GSSSAGMSTI }

// usesMemMax reports whether the memory subsystem is the conventional
// thread-buffered scheduler.
func (d Design) usesMemMax() bool { return d == Conv || d == ConvPFS }

// priorityFirstNet reports whether non-GSS routers serve priority packets
// first (the +PFS designs).
func (d Design) priorityFirstNet() bool { return d == ConvPFS }

// pctFor returns the engine's priority control token for this design:
// priority-equal for [4], priority-first for [4]+PFS, the configured
// hybrid (validated 1-6, capped at the design's deepest tier) otherwise.
func (d Design) pctFor(hybrid, max int) int {
	switch d {
	case SDRAMAware:
		return 1
	case SDRAMAwarePFS:
		return max
	default:
		return min(hybrid, max)
	}
}
