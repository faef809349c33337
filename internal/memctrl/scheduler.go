package memctrl

import "fmt"

// Scheduler selects the memory-scheduler family a channel's controller
// uses. The zero value keeps the paper's pairing (MemMax for the
// conventional designs, the lightweight Simple controller for the
// SDRAM-aware ones); the other members are the related-work schedulers
// DPQ, Regulator and Staged (see their type comments; checked mode
// verifies the first two's guarantees at run time).
type Scheduler int

const (
	// SchedDefault keeps the per-design controller from the paper.
	SchedDefault Scheduler = iota
	// SchedDPQ is the bounded-latency dynamic-priority-queue arbiter.
	SchedDPQ
	// SchedRegulated is the per-bank bandwidth regulator.
	SchedRegulated
	// SchedStaged is the intensity-staged heterogeneous scheduler.
	SchedStaged

	numSchedulers
)

// String names the scheduler as the CLIs spell it.
func (s Scheduler) String() string {
	switch s {
	case SchedDefault:
		return "default"
	case SchedDPQ:
		return "dpq"
	case SchedRegulated:
		return "regulated"
	case SchedStaged:
		return "staged"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// ParseScheduler inverts String.
func ParseScheduler(s string) (Scheduler, error) {
	for sc := SchedDefault; sc < numSchedulers; sc++ {
		if sc.String() == s {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("memctrl: unknown scheduler %q", s)
}

// Schedulers lists all members in declaration order.
func Schedulers() []Scheduler {
	out := make([]Scheduler, 0, int(numSchedulers))
	for sc := SchedDefault; sc < numSchedulers; sc++ {
		out = append(out, sc)
	}
	return out
}

// Valid reports whether s names a member.
func (s Scheduler) Valid() bool { return s >= SchedDefault && s < numSchedulers }
