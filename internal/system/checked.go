package system

import (
	"fmt"

	"aanoc/internal/check"
	"aanoc/internal/dram"
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
//     every Runner.Step — credit loops, buffer coherence, wormhole
//     ordering, the launched-vs-delivered flit ledger, and the active
//     sets (no link or router sleeps on work).
//   - NI sleep: at the same point, every core whose injection component
//     sleeps blocked really is blocked and unable to launch.
//   - Memory-side sleep: at the same point, a channel's held refusal is
//     one its controller still stands by, a sleeping channel has nothing
//     to drain, launch or admit, and a controller not due next cycle has
//     no grant it could make.
//   - End-of-run accounting: finalChecks in Runner.Finish — logical
//     request conservation overall and per core, split-chain pending
//     bounds, GSS token-table bounds, and cross-checks of the assembled
//     obs report against the device counters.

// installChecks arms the invariant layer; called from New when
// Config.Checked is set.
func (r *Runner) installChecks() {
	r.chk = &check.Checker{Panic: r.cfg.CheckedPanic}
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
			rc := c.Config()
			c.OnAdmit = check.NewRegulatorMonitor(r.chk, rc.Window, rc.Budget, "memctrl/regulator"+ch.sfx).Admit
		}
	}
}

// auditMeshes runs the conservation walk over both meshes, binding each
// to its component name, and checks the premise of every sleep outside
// them. For a blocked core: settle pays a stall per slept cycle, which
// is only what the tick would have done if the queue stayed at InjectCap
// and nothing could launch.
func (r *Runner) auditMeshes(now int64) {
	for _, c := range r.cores {
		if c.sleptFrom != sim.Never && (c.inj.CanLaunch() || c.inj.QueueFlits() < r.cfg.InjectCap) {
			r.chk.Reportf(now, "ni/"+c.spec.Name, "ni-sleep",
				"injection sleeps blocked with %d of %d flits queued, can launch: %t",
				c.inj.QueueFlits(), r.cfg.InjectCap, c.inj.CanLaunch())
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

// finalChecks performs the end-of-run accounting and attaches the
// collected violations to the report. Cycle -1 marks whole-run checks.
func (r *Runner) finalChecks(rep *obs.Report, devices dram.Stats) {
	c := r.chk
	r.auditMeshes(r.kern.Now())

	// Logical request conservation: every generated request is completed
	// or still outstanding in the parents table.
	outstanding := int64(len(r.parents))
	if r.met.Generated != r.met.Completed+outstanding {
		c.Reportf(-1, "runner", "request-accounting",
			"generated %d != completed %d + outstanding %d",
			r.met.Generated, r.met.Completed, outstanding)
	}
	// Split-chain bounds and the per-core ledger.
	perCore := make([]int64, len(r.cores))
	r.parents.each(func(id int64, l *logical) {
		if l.pending < 1 {
			c.Reportf(-1, "runner", "split-accounting",
				"outstanding request %d has %d pending splits", id, l.pending)
		}
		perCore[l.core]++
	})
	for i, ni := range r.cores {
		if ni.generated != ni.stats.Completed+perCore[i] {
			c.Reportf(-1, "runner", "request-accounting",
				"core %s generated %d != completed %d + outstanding %d",
				ni.spec.Name, ni.generated, ni.stats.Completed, perCore[i])
		}
	}
	// Per-channel split conservation: a channel cannot complete more
	// splits than the interleaving policy routed to it, and every split
	// was routed to exactly one channel.
	for i := range r.chans {
		if ch := &r.chans[i]; ch.done > ch.sent {
			c.Reportf(-1, "runner", "channel-accounting",
				"channel %d completed %d splits but only %d were routed to it",
				i, ch.done, ch.sent)
		}
	}
	// GSS token tables.
	for _, g := range r.gssAllocs {
		g.AuditTokens(func(kind, format string, args ...any) {
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
	r.checkReport(rep, devices)

	rep.Checked = true
	rep.Violations = c.Violations()
}

// checkReport cross-checks the assembled observability report against
// the device counters it claims to summarise (devices: their sum).
func (r *Runner) checkReport(rep *obs.Report, devices dram.Stats) {
	c := r.chk
	if rep.Utilization < 0 || rep.Utilization > 1 {
		c.Reportf(-1, "obs", "utilization-bound", "utilization %v outside [0,1]", rep.Utilization)
	}
	if rep.Generated < rep.Completed {
		c.Reportf(-1, "obs", "request-accounting",
			"report completed %d exceeds generated %d", rep.Completed, rep.Generated)
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
			if l.BusyCycles < 0 || l.BusyCycles > rep.Cycles {
				c.Reportf(-1, "obs", "link-busy-bound",
					"%s mesh %s %s busy %d cycles of a %d-cycle run",
					m.name, l.Router, l.Port, l.BusyCycles, rep.Cycles)
			}
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
	// The per-bank breakdown must sum to the devices' command totals
	// (every channel's device in aggregate).
	r.checkBankBreakdown(rep.Memory.Banks, devices, "aggregate")
	// And each channel's own breakdown must sum to its own device.
	for _, cs := range rep.Memory.Channels {
		r.checkBankBreakdown(cs.Banks, r.chans[cs.Channel].dev.Stats(),
			fmt.Sprintf("channel %d", cs.Channel))
	}
}

// checkBankBreakdown verifies one per-bank table against the device
// stats it claims to decompose.
func (r *Runner) checkBankBreakdown(banks []obs.BankStat, st dram.Stats, scope string) {
	var acts, reads, writes, pres, aps int64
	for _, b := range banks {
		acts += b.Activates
		reads += b.Reads
		writes += b.Writes
		pres += b.Precharges
		aps += b.AutoPre
	}
	for _, mismatch := range []struct {
		name       string
		sum, total int64
	}{
		{"activates", acts, st.Activates},
		{"reads", reads, st.Reads},
		{"writes", writes, st.Writes},
		{"precharges", pres, st.Precharges},
		{"auto-precharges", aps, st.AutoPre},
	} {
		if mismatch.sum != mismatch.total {
			r.chk.Reportf(-1, "obs", "bank-breakdown",
				"%s per-bank %s sum to %d, device counted %d",
				scope, mismatch.name, mismatch.sum, mismatch.total)
		}
	}
}
