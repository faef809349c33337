// Package memctrl implements the memory subsystems between a noc.Sink
// (request arrivals) and a dram.Device. All of them drive one command
// pipeline (engine: the paper's Fig. 6 PRE/RAS/CAS buffers) and hand
// completions back through a callback: read completions become response
// packets on the response mesh, write completions are final at the
// device.
//
//   - Simple — the paper's lightweight controller for SDRAM-aware and GSS
//     NoCs: the network already scheduled the stream, so requests enter
//     the pipeline in arrival order, with a partially-open-page policy
//     driven by SAGM auto-precharge tags and no reorder buffers.
//
//   - The queued front-ends — bounded per-slot FIFOs and one grant loop
//     (queued) ahead of the pipeline; each adds only its slot mapping and
//     admission rule (Offer), its pick rule and what a grant updates.
//     MemMax is the paper's conventional subsystem (Sonics MemMax +
//     Denali Databahn): QoS threads by traffic class, least-served thread
//     first unless its head conflicts with the last grant. DPQ serves
//     requestors from a rotating priority list over a depth-1 closed-page
//     pipeline, which bounds every request's latency in closed form.
//     Regulator serves cores round-robin but skips a head that would
//     exceed its (core, bank) beat budget for the current window. Staged
//     serves cores round-robin, those with few requests outstanding first.
package memctrl

import (
	"fmt"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// PagePolicy selects what happens to a row after a column access.
type PagePolicy int

const (
	// OpenPage keeps rows open; conflicts cost an explicit PRE. Used by
	// the CONV, [4] and GSS designs (device in BL8 mode).
	OpenPage PagePolicy = iota
	// PartialOpenPage is the paper's SAGM policy: column commands execute
	// with auto-precharge exactly when the packet carries the AP tag (the
	// last split of a logical request); untagged splits keep the row open
	// for their siblings.
	PartialOpenPage
	// ClosedPage auto-precharges every access (ablation baseline).
	ClosedPage
)

// String names the policy.
func (p PagePolicy) String() string {
	switch p {
	case OpenPage:
		return "open"
	case PartialOpenPage:
		return "partial-open"
	case ClosedPage:
		return "closed"
	default:
		return fmt.Sprintf("PagePolicy(%d)", int(p))
	}
}

// Completion reports a finished request to the system: for reads, At is
// the cycle the last data beat left the device (the response packet
// departs then); for writes, the cycle the device absorbed the last beat.
type Completion struct {
	Pkt *noc.Packet
	At  int64
}

// reqState tracks one request inside the command pipeline.
type reqState struct {
	pkt       *noc.Packet
	beatsDone int   // device beats already covered by issued CAS commands
	lastEnd   int64 // data-window end of the most recent CAS
}

// engine is the shared command pipeline: it turns an ordered stream of
// admitted requests into legal PRE/RAS/CAS commands, one per cycle,
// rotating service among the three command buffers as in the paper's
// Fig. 6 controller. Younger requests may precharge/activate their banks
// while an older request's data still flows — the overlap that implements
// bank interleaving (and Databahn-style look-ahead for MemMax).
type engine struct {
	dev    *dram.Device
	t      dram.Timing // cached dev.Timing(): immutable after construction
	policy PagePolicy
	depth  int // command-pipeline window (paper: few small buffers)
	// ooo makes the pipeline stage-skipping as in the paper's Fig. 6: a
	// column command may overtake an older request still in the PRE/RAS
	// stages (never one bound for the same row buffer). Simple, Staged
	// and Regulator set it; MemMax and DPQ leave it off, so their column
	// commands issue strictly in grant order — MemMax reorders in its
	// thread arbiter instead, and DPQ's bound needs the fixed order.
	ooo bool

	inflight []*reqState
	draining []*reqState // all CAS issued; awaiting data-window end
	lastKind noc.Kind    // direction of the most recent column command

	// refresh bookkeeping
	nextRefresh int64
	refreshing  bool

	onDone func(Completion)

	// reqs recycles reqState records: one is leased per admitted request
	// and returned (zeroed, so the pool cannot leak a stale packet
	// pointer) at retirement, so the steady state allocates none.
	reqs sim.Pool[reqState]
}

func newEngine(dev *dram.Device, policy PagePolicy, depth int, onDone func(Completion)) *engine {
	t := dev.Timing()
	return &engine{
		dev:         dev,
		t:           t,
		policy:      policy,
		depth:       depth,
		nextRefresh: t.TREFI,
		onDone:      onDone,
	}
}

// canAdmit reports whether the pipeline window has room and no pending
// refresh is draining it.
func (e *engine) canAdmit() bool { return !e.refreshing && len(e.inflight) < e.depth }

// admit appends a request to the pipeline in service order.
func (e *engine) admit(p *noc.Packet) {
	if !e.canAdmit() {
		panic("memctrl: admit past window depth")
	}
	r := e.reqs.Get()
	r.pkt = p
	e.inflight = append(e.inflight, r)
}

// blFor picks the burst length of the next CAS for a request: the device
// mode register BL, or the on-the-fly chop for DDR3 when at most four
// beats remain.
func blFor(t dram.Timing, remaining int) int {
	if t.OTF && remaining <= 4 {
		return 4
	}
	return t.DeviceBL
}

// useAP decides whether a CAS executes with auto-precharge: the last CAS
// of the request under the closed-page policy, or of a tagged packet under
// the partially-open-page policy.
func (e *engine) useAP(r *reqState, lastCAS bool) bool {
	if !lastCAS {
		return false
	}
	switch e.policy {
	case PartialOpenPage:
		return r.pkt.APTag
	case ClosedPage:
		return true
	default:
		return false
	}
}

// tick drives at most one command onto the command bus and retires
// finished data transfers. Call once per cycle.
func (e *engine) tick(now int64) {
	e.dev.Sync(now)
	// Retire transfers whose data windows have closed.
	for i := 0; i < len(e.draining); {
		r := e.draining[i]
		if now >= r.lastEnd {
			e.draining = append(e.draining[:i], e.draining[i+1:]...)
			e.onDone(Completion{Pkt: r.pkt, At: r.lastEnd})
			e.reqs.Put(r)
			continue
		}
		i++
	}
	if e.maybeRefresh(now) {
		return
	}
	e.issueOne(now)
}

// issueOne drives the command bus for one cycle: the CAS buffer is served
// first (a column command due now is what keeps the data bus seamless —
// with BL4 bursts every other command slot belongs to CAS), then the RAS
// and PRE buffers prepare upcoming pages in the remaining slots.
// Starvation is impossible: a request whose CAS keeps winning eventually
// drains from the window.
func (e *engine) issueOne(now int64) {
	if !e.tryCAS(now) && !e.tryACT(now) {
		e.tryPRE(now)
	}
}

// maybeRefresh interposes periodic refresh: once due, it drains the
// pipeline, precharges every open bank and issues REF.
func (e *engine) maybeRefresh(now int64) bool {
	if e.t.TREFI <= 0 {
		return false
	}
	if !e.refreshing {
		if now < e.nextRefresh {
			return false
		}
		e.refreshing = true
	}
	// Wait for outstanding column traffic to finish.
	if len(e.inflight) > 0 || len(e.draining) > 0 {
		// Let normal command flow continue draining the pipeline;
		// canAdmit keeps new work out meanwhile.
		e.issueOne(now)
		return true
	}
	// Precharge any open row buffer, one per cycle (OpenRow walks a bank's
	// buffers lowest-first, so open subarray siblings close one at a time).
	for b := 0; b < e.t.Banks; b++ {
		if row, open := e.dev.OpenRow(b, now); open {
			cmd := dram.Command{Kind: dram.CmdPrecharge, Bank: b, Row: row}
			if e.dev.CanIssue(cmd, now) {
				e.mustIssue(cmd, now)
			}
			return true
		}
	}
	cmd := dram.Command{Kind: dram.CmdRefresh}
	if e.dev.CanIssue(cmd, now) {
		e.mustIssue(cmd, now)
		e.refreshing = false
		e.nextRefresh = now + e.t.TREFI
	}
	return true
}

// tryCAS serves the CAS buffer. The in-order engine only considers the
// oldest request; the stage-skipping engine issues the first request
// whose row is open and whose bank has no older pending request. Among
// eligible requests, ones continuing the current data-bus direction are
// preferred — a bus turnaround (tWTR / read-to-write gap) costs idle data
// cycles, so the controller drains direction runs.
func (e *engine) tryCAS(now int64) bool {
	if !e.ooo {
		if len(e.inflight) == 0 {
			return false
		}
		return e.issueCASFor(e.inflight[0], 0, now)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < len(e.inflight); i++ {
			r := e.inflight[i]
			if pass == 0 && r.pkt.Kind != e.lastKind {
				continue
			}
			if e.olderSameBuffer(i) {
				continue
			}
			if e.issueCASFor(r, i, now) {
				return true
			}
		}
	}
	return false
}

// sameBuffer reports whether two requests need the same row buffer: the
// same bank and rows mapping to the same subarray. Page ownership is per
// row buffer, so this is the contention test behind every order hazard;
// on the classic device it is true of every same-bank pair.
func (e *engine) sameBuffer(a, b *reqState) bool {
	return a.pkt.Addr.Bank == b.pkt.Addr.Bank &&
		e.t.SubarrayOf(a.pkt.Addr.Row) == e.t.SubarrayOf(b.pkt.Addr.Row)
}

// olderSameBuffer reports whether an older inflight request needs the
// same row buffer as inflight[i] (reordering across it would break the
// page ownership order). Older requests bound for sibling subarrays of
// the bank do not block.
func (e *engine) olderSameBuffer(i int) bool {
	for _, o := range e.inflight[:i] {
		if e.sameBuffer(o, e.inflight[i]) {
			return true
		}
	}
	return false
}

// issueCASFor issues the next column command of inflight[i] if its row is
// open and the command is legal, retiring the request on its last burst.
func (e *engine) issueCASFor(r *reqState, i int, now int64) bool {
	if !e.dev.RowOpen(r.pkt.Addr.Bank, r.pkt.Addr.Row, now) {
		return false
	}
	remaining := r.pkt.Beats - r.beatsDone
	bl := blFor(e.t, remaining)
	last := remaining <= bl
	kind := dram.CmdRead
	if r.pkt.Kind == noc.Write {
		kind = dram.CmdWrite
	}
	cmd := dram.Command{
		Kind: kind, Bank: r.pkt.Addr.Bank, Row: r.pkt.Addr.Row, Col: r.pkt.Addr.Col + r.beatsDone,
		BL: bl, AutoPrecharge: e.useAP(r, last),
	}
	if !e.dev.CanIssue(cmd, now) {
		return false
	}
	w, err := e.dev.Issue(cmd, now)
	if err != nil {
		panic(fmt.Sprintf("memctrl: CanIssue accepted but Issue failed: %v", err))
	}
	r.beatsDone += bl
	r.lastEnd = w.End
	e.lastKind = r.pkt.Kind
	if last {
		e.dev.AddUsefulBeats(int64(r.pkt.Beats))
		e.inflight = append(e.inflight[:i], e.inflight[i+1:]...)
		e.draining = append(e.draining, r)
	}
	return true
}

// actTarget finds the first request, in order, whose row buffer is closed
// and that no older un-CAS'd request contends with (order hazard: an
// older request to the same buffer must own the row first). An open hit
// is the CAS buffer's job, a conflicting occupant the PRE buffer's.
func (e *engine) actTarget(now int64) *reqState {
	for i, r := range e.inflight {
		if e.dev.RowOpen(r.pkt.Addr.Bank, r.pkt.Addr.Row, now) {
			continue
		}
		if _, blocked := e.dev.BlockingRow(r.pkt.Addr.Bank, r.pkt.Addr.Row, now); blocked {
			continue
		}
		if e.olderHazard(i) {
			continue
		}
		return r
	}
	return nil
}

// olderHazard reports whether any older inflight request needs the same
// row buffer as inflight[i] for a different row. Different rows in
// sibling subarrays coexist without a hazard.
func (e *engine) olderHazard(i int) bool {
	r := e.inflight[i]
	for _, o := range e.inflight[:i] {
		if o.pkt.Addr.Row != r.pkt.Addr.Row && e.sameBuffer(o, r) {
			return true
		}
	}
	return false
}

// tryACT serves the RAS buffer.
func (e *engine) tryACT(now int64) bool {
	r := e.actTarget(now)
	if r == nil {
		return false
	}
	cmd := dram.Command{Kind: dram.CmdActivate, Bank: r.pkt.Addr.Bank, Row: r.pkt.Addr.Row}
	if !e.dev.CanIssue(cmd, now) {
		return false
	}
	e.mustIssue(cmd, now)
	return true
}

// tryPRE serves the PRE buffer: close a row buffer whose open row
// mismatches the first request that needs it (row conflict), respecting
// order hazards.
func (e *engine) tryPRE(now int64) bool {
	for i, r := range e.inflight {
		if _, blocked := e.dev.BlockingRow(r.pkt.Addr.Bank, r.pkt.Addr.Row, now); !blocked {
			continue
		}
		if e.olderHazard(i) {
			continue
		}
		cmd := dram.Command{Kind: dram.CmdPrecharge, Bank: r.pkt.Addr.Bank, Row: r.pkt.Addr.Row}
		if e.dev.CanIssue(cmd, now) {
			e.mustIssue(cmd, now)
			return true
		}
	}
	return false
}

func (e *engine) mustIssue(cmd dram.Command, now int64) {
	if _, err := e.dev.Issue(cmd, now); err != nil {
		panic(fmt.Sprintf("memctrl: CanIssue accepted but Issue failed: %v", err))
	}
}

// busy reports whether any request is inflight or draining.
func (e *engine) busy() bool { return len(e.inflight) > 0 || len(e.draining) > 0 }

// nextEvent returns the next cycle tick can possibly act, judged from
// the pipeline's own state — a true event queue, not a per-cycle poll:
//
//   - while a refresh drains the pipeline, every cycle (the drain issues
//     at most one command per cycle, state changes each tick);
//   - for each inflight request the command buffers would serve, a
//     conservative lower bound on the earliest cycle its next command
//     (CAS on an open matching row, PRE on a conflicting row, ACT
//     otherwise) could be legal, from the device's *ReadyAt hints;
//   - the earliest data-window end among draining requests (retirement
//     fires the completion callback at exactly that cycle);
//   - the next scheduled refresh deadline.
//
// A request the try* functions would pass over contributes nothing: one
// behind an older request with an order hazard on its row buffer gets no
// command at all, and a column command is bounded only for the request
// tryCAS would consider (the oldest in order; when stage-skipping, one
// with no older request on its buffer). What holds such a request back
// is the pipeline's composition, which changes only inside a tick or at
// an admission, and both leave the controller awake to ask again.
//
// The per-request bounds are sound because, while the engine sleeps, no
// command is issued, so the device state a bound was computed from can
// only change by an auto-precharge firing — and a row buffer with a
// pending auto-precharge is bounded through RowActivateReadyAt, which
// accounts for it. Bounds may be early (the command may lose the single
// command slot, or a timing the hint leaves out may still refuse it),
// never late: waking early is a harmless no-op tick, identical
// byte-for-byte to the always-ticking schedule. An idle, refresh-free
// engine sleeps until the next admission wakes it.
func (e *engine) nextEvent(now int64) int64 {
	if e.refreshing {
		return now + 1
	}
	next := sim.Never
	for i, r := range e.inflight {
		if e.olderHazard(i) {
			continue
		}
		cas := i == 0 || e.ooo && !e.olderSameBuffer(i)
		if at := e.reqReadyAt(r, cas, now); at < next {
			next = at
		}
	}
	for _, r := range e.draining {
		if r.lastEnd < next {
			next = r.lastEnd
		}
	}
	if e.t.TREFI > 0 && e.nextRefresh < next {
		next = e.nextRefresh
	}
	if next <= now {
		return now + 1
	}
	return next
}

// reqReadyAt bounds the earliest cycle the next command of an inflight
// request free of order hazards could issue, from the device's
// conservative timing hints; cas says whether tryCAS would consider the
// request, and a column command it would not consider has no bound. It
// judges the row's own buffer: a sibling subarray's open row neither
// serves nor blocks the request.
func (e *engine) reqReadyAt(r *reqState, cas bool, now int64) int64 {
	bank, row := r.pkt.Addr.Bank, r.pkt.Addr.Row
	switch {
	case e.dev.RowAutoPrechargePending(bank, row, now):
		// The buffer will close on its own; the next step is a re-activate.
		return e.dev.RowActivateReadyAt(bank, row, now)
	case e.dev.RowOpen(bank, row, now):
		if !cas {
			return sim.Never
		}
		kind := dram.CmdRead
		if r.pkt.Kind == noc.Write {
			kind = dram.CmdWrite
		}
		return e.dev.RowColumnReadyAt(bank, row, kind, now)
	}
	if _, blocked := e.dev.BlockingRow(bank, row, now); blocked {
		// Conflicting row: precharge first.
		return e.dev.RowPrechargeReadyAt(bank, row, now)
	}
	return e.dev.RowActivateReadyAt(bank, row, now)
}
