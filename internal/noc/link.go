package noc

// creditReceiver is anything that receives returned flow-control credits:
// router output ports and injectors. Credits are per virtual channel.
// creditBalance exposes the current count to the checked-mode audit,
// which verifies the credit loop of every link conserves exactly the
// downstream buffer capacity.
type creditReceiver interface {
	addCredits(vc, n int, now int64)
	creditBalance(vc int) int
}

// Link is a one-cycle-latency unidirectional channel carrying one flit
// per cycle from an output port (or injector) to a router input, plus the
// reverse credit wires. With virtual channels, flits of different VCs may
// interleave on the link; the receiving side demultiplexes them into
// per-VC buffers. The in-flight flit is stored inline (flitPkt nil when
// the link is empty) so launching costs no allocation.
type Link struct {
	m        *Mesh
	dst      *inputPort
	creditTo creditReceiver
	sink     *Sink // non-nil when dst is a sink's credit buffer

	flitPkt *Packet

	// idx is the link's position in the mesh's link arena, its bit in
	// Mesh.linkBusy and (times the VC count) the offset of its pending
	// credits in Mesh.linkCredits. dstRouter/srcRouter are the arena
	// indices of the router owning the destination input port and of the
	// one owning the credited output port (-1 for a sink and an
	// injector): the routers a delivery on this link gives something to
	// do. The narrow types keep the arena at 64 bytes a link.
	idx                  int32
	dstRouter, srcRouter int32
	flitVC               int8
	flitHead             bool
}

// pendingCredits returns the link's queued credit counts, per VC.
func (l *Link) pendingCredits() []int32 {
	vcs := l.m.vcs
	return l.m.linkCredits[int(l.idx)*vcs:][:vcs]
}

// newLink carves the next link out of the mesh's arena. The arena was
// sized at construction and is never regrown, so the returned pointer
// (held by out.link, buf.feed and the NIs) stays valid; a node takes at
// most one injector and one sink.
func (m *Mesh) newLink(dst *inputPort, creditTo creditReceiver, dstRouter, srcRouter int) *Link {
	i := len(m.links)
	if i == cap(m.links) {
		panic("noc: more than one injector and one sink attached per node")
	}
	m.links = m.links[:i+1]
	l := &m.links[i]
	*l = Link{
		m: m, dst: dst, creditTo: creditTo,
		idx: int32(i), dstRouter: int32(dstRouter), srcRouter: int32(srcRouter),
	}
	for v := range dst.bufs {
		dst.bufs[v].feed = l
	}
	return l
}

// launch places a flit on the link; it arrives at the destination buffer
// of its virtual channel on the next deliver phase. At most one flit per
// cycle crosses the link, whatever its VC.
func (l *Link) launch(p *Packet, head bool, vc int) {
	if l.flitPkt != nil {
		panic("noc: two flits launched on one link in one cycle")
	}
	l.flitPkt, l.flitHead, l.flitVC = p, head, int8(vc)
	l.m.markBusy(int(l.idx))
}

// returnCredit queues a credit for the upstream sender's given VC; it is
// applied on the next deliver phase.
func (l *Link) returnCredit(vc int) {
	l.pendingCredits()[vc]++
	l.m.markBusy(int(l.idx))
}

// deliver moves the in-flight flit into the destination buffer and
// applies queued credits upstream. A flit landing in a router buffer
// wakes the router (it must forward it); one landing in a sink's credit
// buffer wakes the sink's consumer to drain it instead. A credit applied
// wakes the router it returns to. Either half hands a router something
// its step can act on — a flit to forward, a credit to spend — so deliver
// is the one place a router's awake bit is set.
func (l *Link) deliver(now int64) {
	m := l.m
	if l.flitPkt != nil {
		pkt, head, vc := l.flitPkt, l.flitHead, int(l.flitVC)
		l.flitPkt = nil
		l.dst.bufs[vc].acceptFlit(pkt, head, now)
		if l.sink != nil {
			if h := l.sink.Consumer; h != nil {
				h.Wake(now)
			}
		} else {
			m.routerAwake.set(int(l.dstRouter))
		}
	}
	pending := l.pendingCredits()
	for vc, n := range pending {
		if n > 0 {
			l.creditTo.addCredits(vc, int(n), now)
			pending[vc] = 0
			if l.srcRouter >= 0 {
				m.routerAwake.set(int(l.srcRouter))
			}
		}
	}
}

// busy reports whether a flit is in flight: a part of Mesh.Quiescent,
// kept with it.
func (l *Link) busy() bool { return l.flitPkt != nil }
