package noc

// Audit is the checked-mode conservation walk over one mesh. It verifies,
// from the live structures, the invariants credit-based wormhole flow
// control is supposed to maintain:
//
//   - credit conservation: for every link and VC, sender credits +
//     the in-flight flit + downstream buffer occupancy + credits in
//     flight back equals the downstream buffer capacity, and the sender's
//     count never leaves [0, capacity];
//   - buffer coherence: each input buffer's occupancy equals the sum of
//     its packets' resident flits (Arrived − Sent), arrivals never exceed
//     the packet length, and only the head packet of a VC has forwarded
//     flits (wormhole ordering);
//   - transfer validity: an output VC's active wormhole transfer always
//     references the head packet of its input buffer;
//   - injection backlog: each injector's queuedFlits equals the unsent
//     flits of the packets linked into its queues;
//   - flit conservation: every flit injectors launched is either resident
//     (in a buffer or on a link) or was drained by a sink — injected
//     flits are delivered exactly once, none duplicated or lost.
//
// Violations are reported through the closure so the package stays free
// of checker dependencies; callers bind it to their Checker.
func (m *Mesh) Audit(report func(kind, format string, args ...any)) {
	for i := range m.links {
		m.auditLink(i, &m.links[i], report)
	}
	for _, r := range m.Routers {
		for port := range r.In {
			in := &r.In[port]
			for vc := range in.bufs {
				auditBuffer(&in.bufs[vc], report, r, port, vc)
			}
		}
		for port := range r.Out {
			o := &r.Out[port]
			if o.link == nil {
				continue
			}
			for vc := range o.active {
				a := &o.active[vc]
				if a.pp == nil {
					continue
				}
				if a.buf.head() != a.pp {
					report("transfer-order", "router %v out %s vc %d: active transfer is not its buffer head",
						r.Pos, PortName(port), vc)
				}
				if a.pp.Sent >= a.pp.Pkt.Flits {
					report("transfer-order", "router %v out %s vc %d: active transfer already sent %d/%d flits",
						r.Pos, PortName(port), vc, a.pp.Sent, a.pp.Pkt.Flits)
				}
			}
		}
	}
	var resident int64
	for _, r := range m.Routers {
		for port := range r.In {
			resident += int64(r.In[port].occupied())
		}
	}
	// The NIs hang off their links, in attach order.
	var inFlight, launched, drained int64
	sinks := 0
	for i := range m.links {
		l := &m.links[i]
		if l.flitPkt != nil {
			inFlight++
		}
		if inj, ok := l.creditTo.(*Injector); ok {
			launched += inj.launched
			inj.audit(report)
		}
		if s := l.sink; s != nil {
			for vc := range s.port.bufs {
				auditBuffer(&s.port.bufs[vc], report, nil, sinks, vc)
			}
			sinks++
			resident += int64(s.port.occupied())
			drained += s.drained
		}
	}
	if launched != resident+inFlight+drained {
		report("flit-conservation",
			"%d flits launched but %d resident + %d in flight + %d drained",
			launched, resident, inFlight, drained)
	}
	m.auditActivity(report)
}

// audit recomputes the injection backlog from the linked queues: every
// packet's flits, less those the head of its VC already launched.
func (inj *Injector) audit(report func(kind, format string, args ...any)) {
	n := 0
	for vc := range inj.queues {
		for p := inj.queues[vc].head; p != nil; p = p.next {
			n += p.Flits
		}
		n -= inj.sent[vc]
	}
	if n != inj.queuedFlits {
		report("inject-backlog", "injector at %v: %d unsent flits queued but queuedFlits %d",
			inj.link.m.Routers[inj.link.dstRouter].Pos, n, inj.queuedFlits)
	}
}

// auditActivity recomputes the incremental activity state (the
// idle-skip and sleep conditions) from the live structures. The link
// set: a link's busy bit is set exactly when it holds a flit or a pending
// credit. The router set: a router whose awake bit is clear has nothing
// its step could do — no free output VC with a matching buffer head, no
// transfer with both a credit and an arrived unsent flit. An imbalance
// means part of the mesh could sleep while work remains — a timing bug
// the skipping would silently introduce. The per-router want counters
// (the port-skip condition) are recomputed the same way.
func (m *Mesh) auditActivity(report func(kind, format string, args ...any)) {
	for i := range m.links {
		l := &m.links[i]
		pend := 0
		for _, n := range l.pendingCredits() {
			pend += int(n)
		}
		holds := l.flitPkt != nil || pend > 0
		if marked := m.linkBusy.has(i); marked != holds {
			report("active-set", "link %d: busy bit %t but holds work %t", i, marked, holds)
		}
	}
	for i, r := range m.Routers {
		var want [NumPorts]int32
		for port := range r.In {
			in := &r.In[port]
			for vc := range in.bufs {
				for _, pp := range in.bufs[vc].packets {
					want[pp.route]++
				}
			}
		}
		if want != r.want {
			report("active-set", "router %v: resident routes %v but want %v",
				r.Pos, want, r.want)
		}
		if !m.routerAwake.has(i) {
			r.auditAsleep(report)
		}
	}
}

// auditAsleep checks that a router outside the awake set really has
// nothing to do: step would find no channel to allocate and no flit to
// send.
func (r *Router) auditAsleep(report func(kind, format string, args ...any)) {
	for out := range r.Out {
		o := &r.Out[out]
		if o.link == nil {
			continue
		}
		for vc := range o.active {
			a := &o.active[vc]
			if a.pp != nil {
				if o.credits[vc] > 0 && a.pp.Arrived > a.pp.Sent {
					report("active-set", "router %v asleep with a sendable flit on out %s vc %d",
						r.Pos, PortName(out), vc)
				}
				continue
			}
			for in := range r.In {
				if pp := r.In[in].bufs[vc].head(); pp != nil && int(pp.route) == out {
					report("active-set", "router %v asleep with out %s vc %d free and in %s requesting it",
						r.Pos, PortName(out), vc, PortName(in))
				}
			}
		}
	}
}

// auditCounts checks the credit loop of one link: every VC's credit supply
// is partitioned between the sender, the wires, and the downstream
// buffer, and the partition always sums to the buffer capacity.
func (l *Link) auditCounts(vc int) (balance, inFlight, occupied, pending, capacity int) {
	balance = l.creditTo.creditBalance(vc)
	if l.flitPkt != nil && int(l.flitVC) == vc {
		inFlight = 1
	}
	b := &l.dst.bufs[vc]
	return balance, inFlight, b.occupied, int(l.pendingCredits()[vc]), b.capacity
}

func (m *Mesh) auditLink(idx int, l *Link, report func(kind, format string, args ...any)) {
	if l.creditTo == nil {
		return
	}
	for vc := range l.dst.bufs {
		bal, fly, occ, pend, cap := l.auditCounts(vc)
		if bal < 0 || bal > cap {
			report("credit-bound", "link %d vc %d: sender holds %d credits for a %d-flit buffer",
				idx, vc, bal, cap)
		}
		if bal+fly+occ+pend != cap {
			report("credit-conservation",
				"link %d vc %d: credits %d + in-flight %d + buffered %d + returning %d != capacity %d",
				idx, vc, bal, fly, occ, pend, cap)
		}
	}
}

// auditBuffer checks one VC buffer's packet accounting and wormhole
// ordering. The buffer is input port port of router r, or sink number
// port when r is nil; it is named only in a violation's message, so a
// clean audit allocates nothing.
func auditBuffer(b *InputBuffer, report func(kind, format string, args ...any), r *Router, port, vc int) {
	at := func(kind, format string, args ...any) {
		if r == nil {
			report(kind, "sink %d vc %d: "+format, append([]any{port, vc}, args...)...)
			return
		}
		report(kind, "router %v in %s vc %d: "+format, append([]any{r.Pos, PortName(port), vc}, args...)...)
	}
	if b.occupied < 0 || b.occupied > b.capacity {
		at("buffer-bound", "occupancy %d outside [0,%d]", b.occupied, b.capacity)
	}
	total := 0
	for i, pp := range b.packets {
		if pp.Sent < 0 || pp.Arrived < pp.Sent {
			at("buffer-accounting", "packet %d sent %d of %d arrived flits", i, pp.Sent, pp.Arrived)
		}
		if pp.Arrived > pp.Pkt.Flits {
			at("buffer-accounting", "packet %d arrived %d flits of a %d-flit packet", i, pp.Arrived, pp.Pkt.Flits)
		}
		if i > 0 && pp.Sent > 0 {
			at("wormhole-order", "non-head packet %d has %d forwarded flits", i, pp.Sent)
		}
		total += pp.Arrived - pp.Sent
	}
	if total != b.occupied {
		at("buffer-accounting", "resident flits %d != occupancy %d", total, b.occupied)
	}
}
