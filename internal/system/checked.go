package system

import (
	"aanoc/internal/check"
	"aanoc/internal/memctrl"
	"aanoc/internal/noc"
	"aanoc/internal/obs"
	"aanoc/internal/sim"
)

// This file wires the internal/check invariant layer into the runner.
// Checking points, mirroring the DESIGN.md observability counting-points
// note:
//
//   - DRAM protocol conformance: a check.DRAMMonitor installed as the
//     device's Observer re-validates every accepted command against
//     shadow timing state, independent of Device.CanIssue.
//   - NoC conservation: Mesh.Audit runs over both meshes at the end of
//     every visited cycle (the kernel's observer, after Kernel.Audit) —
//     credit loops, buffer coherence, wormhole ordering, the flit ledger,
//     and the active sets (no link or router sleeps on work).
//   - NI sleep: at the same point, every core that sleeps blocked really
//     is blocked and unable to launch, and every sleeping core has nothing
//     to drain or launch and no generator due before its wake.
//   - NI backlog: at the same point, each core's uncut flits recounted
//     from the requests linked in its backlog, by cutting them, equal its
//     ledger, and a core with uncut flits has a packet on its injector.
//   - Memory-side sleep: at the same point, a channel's held refusal is
//     one its controller still stands by, a sleeping channel has nothing
//     to drain, launch or admit, and a controller not due next cycle has
//     no grant it could make.
//   - End-of-run accounting: finalChecks in Runner.Finish — logical
//     request conservation per core, the slot table's live count
//     against its walk, split-chain pending bounds (uncut splits count
//     as pending and as routed to their channel, not yet done), GSS
//     token-table bounds, and the assembled obs report's own rules and
//     link grants.
//   - Split handles: at every split completion, the packet's Req names
//     the slot whose record has the packet's ParentID.

// installChecks arms the invariant layer; called from New when
// Config.Checked is set.
func (r *Runner) installChecks() {
	r.chk = &check.Checker{}
	for i := range r.chans {
		ch := &r.chans[i]
		// One protocol monitor per channel: each device's command stream
		// is validated against its own shadow timing state.
		ch.dev.Observer = check.NewDRAMMonitor(r.chk, r.timing).Observe
		// Scheduler-guarantee monitors, one per channel: the DPQ analytic
		// WCET bound asserted per completion, or the per-bank regulation
		// invariant shadow-audited per grant. The monitors consume the
		// controllers' fact-reporting hooks; the bound arithmetic and
		// ledger live entirely in internal/check.
		switch c := ch.ctrl.(type) {
		case *memctrl.DPQ:
			b := check.NewDPQBound(r.timing, c.Config().Requestors, r.maxBeats)
			ch.dpqMon = check.NewDPQMonitor(r.chk, b, "memctrl/dpq"+ch.sfx)
			c.OnAdmit = ch.dpqMon.Admit
			c.OnComplete = ch.dpqMon.Complete
		case *memctrl.Regulator:
			c.OnAdmit = check.NewRegulatorMonitor(r.chk, memctrl.RegulatorWindow, c.Budget(), "memctrl/regulator"+ch.sfx).Admit
		}
	}
}

// auditMeshes audits the kernel's jump, runs the conservation walk over
// both meshes, binding each to its component name, and checks the
// premise of every sleep outside them, at the end of a visited cycle
// (the skipped ones after it change no state). For a blocked core:
// settle pays a stall per slept cycle, which is only what the tick would
// have done if the queue stayed at the injection cap and nothing could
// launch. A core due later than next cycle has nothing to drain or
// launch, and, unless it sleeps blocked, no generator due before its
// wake.
func (r *Runner) auditMeshes(now int64) {
	r.kern.Audit(func(kind, format string, args ...any) {
		r.chk.Reportf(now, "sim/kernel", kind, format, args...)
	})
	for _, c := range r.cores {
		blocked, wake := c.sleptFrom != sim.Never, c.h.WakeAt()
		if blocked && (c.inj.CanLaunch() || c.queued() < injectCap) ||
			wake > now+1 && (c.sink.CanDrain() || c.inj.CanLaunch() || !blocked && c.nextArrival() < wake) {
			r.chk.Reportf(now, "ni/"+c.spec.Name, "ni-sleep",
				"core due at %d, blocked: %t with %d of %d flits queued, flits to drain: %t, to launch: %t, next arrival %d",
				wake, blocked, c.queued(), injectCap, c.sink.CanDrain(), c.inj.CanLaunch(), c.nextArrival())
		}
		if n := r.uncutFlits(c); n != c.uncut || n > 0 && c.inj.QueueFlits() == 0 {
			r.chk.Reportf(now, "ni/"+c.spec.Name, "inject-backlog",
				"%d flits wait uncut in the backlog, the ledger holds %d, the injector %d",
				n, c.uncut, c.inj.QueueFlits())
		}
	}
	// The memory side's sleeps. A head the controller accepts must be
	// offered next cycle: a refusal held against it is stale (Accepts
	// changed without a controller tick), and a channel due later sleeps
	// on it. Drainable or launchable flits keep the channel awake on their
	// own, and a possible grant keeps the controller due.
	for i := range r.chans {
		c := &r.chans[i]
		p := c.sink.Peek()
		accepts := p != nil && c.ctrl.Accepts(p)
		asleep := c.h.WakeAt() > now+1
		if accepts && (c.refused || asleep) || asleep && (c.sink.CanDrain() || c.respInj.CanLaunch()) {
			r.chk.Reportf(now, "mem-admit"+c.sfx, "mem-sleep",
				"channel due at %d with %d packets ready, head refused: %t, accepted: %t, flits to drain: %t, to launch: %t",
				c.h.WakeAt(), c.sink.Ready(), c.refused, accepts, c.sink.CanDrain(), c.respInj.CanLaunch())
		}
		if c.memDue > now+1 && c.ctrl.CanGrant() {
			r.chk.Reportf(now, "memctrl"+c.sfx, "mem-sleep",
				"scheduler sleeps until %d with a request queued and room in the pipeline", c.memDue)
		}
	}
	r.reqMesh.Audit(func(kind, format string, args ...any) {
		r.chk.Reportf(now, "noc/request", kind, format, args...)
	})
	r.respMesh.Audit(func(kind, format string, args ...any) {
		r.chk.Reportf(now, "noc/response", kind, format, args...)
	})
}

// eachWaiting visits every request in c's backlog with the number of its
// first split not yet cut.
func (r *Runner) eachWaiting(c *coreNI, fn func(slot int32, l *logical, first int)) {
	for vc := range c.backlog {
		first := int(c.backlog[vc].cut)
		for slot := c.backlog[vc].head; slot != 0; slot, first = r.reqs.at(slot).next, 0 {
			fn(slot, r.reqs.at(slot), first)
		}
	}
}

// uncutFlits recounts the flits of c's splits not yet cut, by cutting
// each into a scratch packet.
func (r *Runner) uncutFlits(c *coreNI) int {
	n := 0
	var p noc.Packet
	r.eachWaiting(c, func(slot int32, l *logical, k int) {
		for splits, _ := r.size(l); k < splits; k++ {
			r.packet(&p, c, slot, l, k)
			n += p.Flits
		}
	})
	return n
}

// finalChecks performs the end-of-run accounting and attaches the
// collected violations to the report. Cycle -1 marks whole-run checks.
func (r *Runner) finalChecks(rep *obs.Report) {
	c := r.chk
	r.auditMeshes(r.kern.Now())

	// Split-chain bounds and the per-core ledger: every request a core
	// generated is completed or still outstanding in the slot table, and
	// the table's live count is the records its walk finds. A split not
	// yet cut is pending, and routed to its channel but not done there.
	uncut := map[int64]int32{} // by parent ID
	for _, ni := range r.cores {
		r.eachWaiting(ni, func(_ int32, l *logical, first int) {
			splits, _ := r.size(l)
			uncut[l.id] = int32(splits - first)
		})
	}
	perCore := make([]int64, len(r.cores))
	inFlight := make([]int64, len(r.chans))
	walked := 0
	r.reqs.each(func(l *logical) {
		if l.pending < max(1, uncut[l.id]) {
			c.Reportf(-1, "runner", "split-accounting",
				"outstanding request %d has %d pending splits, %d of them uncut", l.id, l.pending, uncut[l.id])
		}
		perCore[l.core]++
		inFlight[l.ch] += int64(uncut[l.id])
		walked++
	})
	if walked != r.reqs.live {
		c.Reportf(-1, "runner", "request-accounting",
			"parents table counts %d outstanding requests, its walk finds %d",
			r.reqs.live, walked)
	}
	for i, ni := range r.cores {
		if ni.generated != ni.completed+perCore[i] {
			c.Reportf(-1, "runner", "request-accounting",
				"core %s generated %d != completed %d + outstanding %d",
				ni.spec.Name, ni.generated, ni.completed, perCore[i])
		}
	}
	// Per-channel split conservation: a channel cannot complete more
	// splits than the interleaving policy routed to it, less those still
	// uncut, and every split was routed to exactly one channel.
	for i := range r.chans {
		if ch := &r.chans[i]; ch.done+inFlight[i] > ch.sent {
			c.Reportf(-1, "runner", "channel-accounting",
				"channel %d completed %d splits with %d uncut but only %d were routed to it",
				i, ch.done, inFlight[i], ch.sent)
		}
	}
	// GSS token tables.
	for i := range r.gssAllocs {
		r.gssAllocs[i].AuditTokens(func(kind, format string, args ...any) {
			c.Reportf(-1, "gss", kind, format, args...)
		})
	}
	// DPQ WCET stragglers: a request still outstanding past its analytic
	// deadline at end of run missed its bound just as surely as a late
	// completion.
	for i := range r.chans {
		if m := r.chans[i].dpqMon; m != nil {
			m.Flush(r.kern.Now())
		}
	}
	r.checkReport(rep)

	rep.Checked = true
	rep.Violations = c.Violations()
}

// checkReport holds the assembled observability report to the rules
// every report obeys (obs.Report.Validate) and cross-checks each link's
// grants against the packets its port has yet to launch.
func (r *Runner) checkReport(rep *obs.Report) {
	c := r.chk
	if err := rep.Validate(); err != nil {
		c.Reportf(-1, "obs", "report-invalid", "%v", err)
	}
	// A fixed order, request mesh first: which violations survive the
	// checker's limit, and in what sequence, must not vary between runs.
	for _, m := range []struct {
		name  string
		mesh  *noc.Mesh
		links []obs.LinkStat
	}{{"request", r.reqMesh, rep.Network.Request.Links}, {"response", r.respMesh, rep.Network.Response.Links}} {
		i := 0
		eachLink(m.mesh, func(_ *noc.Router, _ int, o *noc.OutputPort) {
			l := m.links[i]
			i++
			// Grants count at allocation, busy cycles at launch: every
			// granted packet has launched a flit except the winners (at
			// most one per VC) still waiting to send their first.
			if l.Grants < 0 || l.Grants > l.BusyCycles+int64(o.UnlaunchedGrants()) {
				c.Reportf(-1, "obs", "link-grant-bound",
					"%s mesh %s %s granted %d packets over %d busy cycles with %d yet to launch",
					m.name, l.Router, l.Port, l.Grants, l.BusyCycles, o.UnlaunchedGrants())
			}
		})
	}
}
