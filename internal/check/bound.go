package check

import (
	"slices"

	"aanoc/internal/dram"
)

// DPQBound is the closed-form worst-case access-latency model of the
// DPQ arbiter (memctrl.DPQ), computed from the resolved DDR timing
// package alone. The arbiter's structure makes the bound derivable:
//
//   - Rotation round-robin over N requestor queues: after any grant the
//     served requestor drops to the rotation tail, so between two grants
//     to one requestor at most N-1 foreign grants interpose. A request
//     admitted at position p (1-based) of its own queue therefore waits
//     for at most p*N - 1 grants, plus however many requests the command
//     pipeline already holds (engine occupancy at admission).
//
//   - Depth-1 closed-page pipeline: requests are serviced one at a time,
//     strictly in order, and every access pays the full page cycle —
//     there is no cross-request state (open rows) that could make one
//     service time depend on another request's address.
//
// Each interfering request is charged the worst-case service time of the
// largest request the workload can present (MaxBeats); the request
// itself is charged its own service time. Refresh is folded in by fixed
// point: every tREFI window inside the waiting interval can steal one
// worst-case refresh drain.
//
// Every component of the bound is deliberately pessimistic (sums of
// worst-case waits that cannot all occur together), so the bound is
// sound — a completion past the deadline can only mean the arbiter or
// the device violated its contract, which is exactly what checked mode
// wants to detect.
type DPQBound struct {
	t dram.Timing
	// Requestors is the arbiter's queue count N.
	Requestors int
	// MaxBeats is the largest single-request beat count the workload can
	// present; interfering requests are charged its service time.
	MaxBeats int
}

// boundMargin absorbs the handful of fixed pipeline cycles (command-bus
// slot rotation, retirement granularity) that are not part of any JEDEC
// parameter.
const boundMargin = 16

// NewDPQBound builds the bound model for an arbiter with the given
// requestor count serving a workload whose largest request is maxBeats.
func NewDPQBound(t dram.Timing, requestors, maxBeats int) *DPQBound {
	if requestors < 1 {
		requestors = 1
	}
	if maxBeats < 1 {
		maxBeats = 1
	}
	return &DPQBound{t: t, Requestors: requestors, MaxBeats: maxBeats}
}

// Service bounds the cycles one closed-page access of the given beat
// count can occupy the depth-1 pipeline, measured from the cycle the
// pipeline takes the request to the cycle its data window closes:
// worst-case wait for the bank to accept an ACT (refresh recovery, write
// recovery and precharge of the previous access, tRC/tRRD/tFAW activate
// spacing — summed, since each is an independent upper bound on the
// remaining wait), then tRCD, then k = ceil(beats/BL) column bursts each
// paying full data transfer plus a bus turnaround, then the last burst's
// data tail.
func (b *DPQBound) Service(beats int) int64 {
	t := b.t
	burst := dram.BurstCycles(t.DeviceBL)
	if beats < 1 {
		beats = 1
	}
	k := int64((beats + t.DeviceBL - 1) / t.DeviceBL)
	// With bank groups the long (same-group) spacings dominate the flat
	// parameter; worst case charges every spacing at its long value.
	trrd, tccd := t.TRRD, t.TCCD
	if t.TRRDL > trrd {
		trrd = t.TRRDL
	}
	if t.TCCDL > tccd {
		tccd = t.TCCDL
	}
	dact := t.TRFC + t.CWL + burst + t.TWR + t.TRP + t.TRC + t.TFAW + trrd
	perBurst := tccd + t.CL + t.CWL + burst + t.TWTR + t.TRTW + 2
	tail := t.CL + t.CWL + burst + 2
	return dact + t.TRCD + k*perBurst + tail
}

// refreshCost bounds one refresh interruption: drain (covered by the
// interfering-request terms), precharge every bank one per cycle with
// worst-case row-open recovery, then tRP + tRFC.
func (b *DPQBound) refreshCost() int64 {
	t := b.t
	return int64(t.Banks)*(t.TRAS+t.TWR+t.TRP+2) + t.TRP + t.TRFC + boundMargin
}

// Deadline returns the latest legal completion cycle for a request
// admitted at cycle admit, at 1-based position queuePos of its own
// queue, with engineOcc requests already inside the pipeline, moving
// beats beats. Interference: queuePos*N - 1 grants may precede the
// request's own grant, plus the engineOcc residents; each is charged
// Service(MaxBeats). Refresh interruptions fold in by fixed point: each
// pass charges one refresh cost per tREFI window the interval spans (plus
// two for the partial windows at its ends). The interval climbs from
// below, so the loop runs until it stops growing; it stops because a
// refresh costs less than tREFI, and a window's worth of interval
// therefore adds less than a window.
func (b *DPQBound) Deadline(admit int64, queuePos, engineOcc, beats int) int64 {
	if queuePos < 1 {
		queuePos = 1
	}
	if engineOcc < 0 {
		engineOcc = 0
	}
	ahead := int64(queuePos*b.Requestors-1) + int64(engineOcc)
	base := ahead*b.Service(b.MaxBeats) + b.Service(beats) + boundMargin
	total := base
	for b.t.TREFI > 0 {
		next := base + (total/b.t.TREFI+2)*b.refreshCost()
		if next == total {
			break
		}
		total = next
	}
	return admit + total
}

// DPQMonitor asserts the DPQ arbiter's analytic worst-case access
// latency at runtime: every admission (reported by the arbiter's
// OnAdmit hook) registers a closed-form deadline, and every completion
// is compared against it. A completion past its deadline — or a request
// still outstanding past its deadline at end of run — is a checked-mode
// violation: the arbiter's bounded-latency guarantee did not hold.
type DPQMonitor struct {
	C *Checker
	B *DPQBound

	// Name qualifies the violation component (per-channel monitors).
	Name string

	deadlines map[int64]int64
	// Checked counts completions compared against a deadline.
	Checked int64
}

// NewDPQMonitor builds a monitor reporting into c.
func NewDPQMonitor(c *Checker, b *DPQBound, name string) *DPQMonitor {
	if name == "" {
		name = "memctrl/dpq"
	}
	return &DPQMonitor{C: c, B: b, Name: name, deadlines: make(map[int64]int64)}
}

// Admit registers a request's deadline from its admission facts.
func (m *DPQMonitor) Admit(id int64, beats, queuePos, engineOcc int, now int64) {
	m.deadlines[id] = m.B.Deadline(now, queuePos, engineOcc, beats)
}

// Complete checks a completion against its registered deadline.
func (m *DPQMonitor) Complete(id int64, at int64) {
	dl, ok := m.deadlines[id]
	if !ok {
		m.C.Reportf(at, m.Name, "wcet-bound",
			"completion of request %d was never admitted", id)
		return
	}
	delete(m.deadlines, id)
	m.Checked++
	if at > dl {
		m.C.Reportf(at, m.Name, "wcet-bound",
			"request %d completed at %d, past its analytic WCET deadline %d (late by %d)",
			id, at, dl, at-dl)
	}
}

// Flush reports requests still outstanding past their deadline when the
// run ends at cycle end (requests whose deadline lies beyond the run are
// legitimately unfinished), in ascending request ID: the report, and
// which violations the checker's limit keeps, must not vary between
// runs.
func (m *DPQMonitor) Flush(end int64) {
	var late []int64
	for id, dl := range m.deadlines { // order-free: collected, then sorted
		if dl < end {
			late = append(late, id)
		}
	}
	slices.Sort(late)
	for _, id := range late {
		m.C.Reportf(end, m.Name, "wcet-bound",
			"request %d still outstanding at end of run, past its analytic WCET deadline %d",
			id, m.deadlines[id])
	}
}

// RegulatorMonitor shadow-audits the bandwidth regulator's invariant: no
// core may be charged more than its per-bank beat budget inside any
// regulation window. It maintains its own usage ledger from the
// regulator's OnAdmit facts — a regulator bug that over-admits cannot
// self-certify through its own accounting.
type RegulatorMonitor struct {
	C *Checker

	// Name qualifies the violation component (per-channel monitors).
	Name string
	// Window and Budget mirror the regulator's resolved configuration.
	Window, Budget int64

	usage  map[[2]int]int64
	window int64
	// Checked counts admissions audited.
	Checked int64
}

// NewRegulatorMonitor builds a monitor reporting into c.
func NewRegulatorMonitor(c *Checker, window, budget int64, name string) *RegulatorMonitor {
	if name == "" {
		name = "memctrl/regulator"
	}
	if window < 1 {
		window = 1
	}
	return &RegulatorMonitor{
		C: c, Name: name, Window: window, Budget: budget,
		usage: make(map[[2]int]int64),
	}
}

// Admit audits one admission against the shadow ledger.
func (m *RegulatorMonitor) Admit(core, bank, beats int, now int64) {
	if w := now / m.Window; w != m.window {
		m.window = w
		clear(m.usage)
	}
	k := [2]int{core, bank}
	m.usage[k] += int64(beats)
	m.Checked++
	if m.usage[k] > m.Budget {
		m.C.Reportf(now, m.Name, "regulation-window",
			"core %d charged %d beats against bank %d in window %d, budget %d",
			core, m.usage[k], bank, m.window, m.Budget)
	}
}
