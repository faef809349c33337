package noc

// Candidate is a packet competing for an output channel: the head packet
// of one input-buffer VC, identified by its input port.
type Candidate struct {
	Pkt  *Packet
	Port int
}

// Allocator is a flow-control policy for one router output channel. The
// router consults it whenever the channel becomes free and more than one
// (or one) packet desires it; winner-take-all allocation then holds the
// channel for the winner until its tail flit has passed (within its
// virtual channel — other VCs interleave at flit granularity).
//
// Implementations: round-robin and priority-first in internal/router, the
// paper's GSS token algorithm in internal/core.
//
// The cands slice passed to Select is scratch storage owned by the router
// and overwritten on the next allocation — implementations must not
// retain it across calls.
type Allocator interface {
	// OnPacketArrival is invoked once when a packet arrives in an input
	// buffer of this router and will request this output.
	OnPacketArrival(p *Packet, now int64)
	// Select picks the winner among the candidate buffer heads, returning
	// an index into cands, or -1 to leave the channel idle this cycle.
	Select(cands []Candidate, now int64) int
	// OnScheduled is invoked when the selected packet is granted the
	// channel.
	OnScheduled(p *Packet, now int64)
}

// activeXfer is a wormhole transfer in progress on one VC of an output
// port; pp == nil marks the slot free.
type activeXfer struct {
	buf *InputBuffer
	pp  *PacketProgress
}

// OutputPort is one output channel of a router: its downstream link,
// per-VC credits and transfers, and the flow-control policy. With a
// single VC this is classic wormhole winner-take-all; with more, the
// priority VC's flits take the link first, so a priority packet overtakes
// a long best-effort transfer at flit granularity.
type OutputPort struct {
	link    *Link
	credits []int
	alloc   Allocator
	active  []activeXfer

	// BusyCycles counts cycles a flit was actually launched; used by the
	// activity-based power model.
	BusyCycles int64
	// Grants counts channel allocations the port's flow-control policy
	// made — one per packet granted the output, regardless of its length.
	// BusyCycles/Grants approximates the mean granted packet length.
	Grants int64
}

func (o *OutputPort) addCredits(vc, n int) { o.credits[vc] += n }

func (o *OutputPort) creditBalance(vc int) int { return o.credits[vc] }

// UnlaunchedGrants counts the port's granted transfers that have not yet
// launched their head flit: the packets Grants has counted and
// BusyCycles has not begun to.
func (o *OutputPort) UnlaunchedGrants() int {
	n := 0
	for i := range o.active {
		if pp := o.active[i].pp; pp != nil && pp.Sent == 0 {
			n++
		}
	}
	return n
}

// Connected reports whether the port has a downstream link (edge ports of
// the mesh are left unwired unless a sink is attached).
func (o *OutputPort) Connected() bool { return o.link != nil }

// Router is a 5-port wormhole mesh router. Routing is XY; each output
// port carries its own allocator so that, as in the paper, only channels
// on paths toward the memory subsystem need the (more expensive) GSS flow
// controller.
//
// The router's state is laid out struct-of-arrays style: ports, buffers,
// and transfer slots are value arrays inside the Router, and routers
// themselves live in one contiguous arena per mesh, so the per-cycle walk
// touches sequential memory instead of chasing per-port heap objects.
// Pointers into the arrays (&r.Out[p], &r.In[p].bufs[vc]) stay valid
// because none of the arrays is ever resized after construction.
type Router struct {
	Pos Coord
	In  [NumPorts]inputPort
	Out [NumPorts]OutputPort
	vcs int

	routing Routing

	// want counts resident packets (arrived head flit, not yet fully
	// forwarded) routed to each output port, pinned at head arrival. A
	// port with want zero has no candidates and no active transfer, so
	// step passes over it without touching its VC slots; with every want
	// zero step does nothing and arbitrate puts the router to sleep.
	// Packets, not flits: a resident packet whose flits are all
	// forwarded-or-unarrived still waits on an arrival, which wakes the
	// router the cycle the flit lands.
	want [NumPorts]int32

	// cands/candBufs are scratch storage for allocate, sized for the
	// worst case of one candidate per input port.
	cands    [NumPorts]Candidate
	candBufs [NumPorts]*InputBuffer
}

// init wires one router of a mesh. credits, active, bufs and fifos are
// its share of the mesh-wide backing slices (NumPorts*vcs entries;
// bufFlits times that for fifos), carved here into one run per port.
func (r *Router) init(pos Coord, vcs, bufFlits int, credits []int, active []activeXfer, bufs []InputBuffer, fifos []*PacketProgress) {
	r.Pos = pos
	r.vcs = vcs
	onNewPacket := r.onNewPacket // bound once: every VC buffer shares the method value
	for p := 0; p < NumPorts; p++ {
		lo, hi := p*vcs, (p+1)*vcs
		r.In[p].init(bufs[lo:hi:hi], bufFlits, fifos[lo*bufFlits:hi*bufFlits])
		o := &r.Out[p]
		o.alloc = fifoAllocator{}
		o.credits = credits[lo:hi:hi]
		o.active = active[lo:hi:hi]
		for v := range r.In[p].bufs {
			r.In[p].bufs[v].onNewPacket = onNewPacket
		}
	}
}

// onNewPacket registers a packet whose head flit just arrived: pin its
// route, bump the desire counter of that output, and introduce it to the
// output's flow-control policy.
func (r *Router) onNewPacket(pp *PacketProgress, now int64) {
	out := r.routeFor(pp.Pkt)
	pp.route = int8(out)
	r.want[out]++
	r.Out[out].alloc.OnPacketArrival(pp.Pkt, now)
}

// SetAllAllocators installs policies produced by mk on every output port.
func (r *Router) SetAllAllocators(mk func(port int) Allocator) {
	for p := 0; p < NumPorts; p++ {
		r.Out[p].alloc = mk(p)
	}
}

// vcOf returns the virtual channel a packet travels on: with more than
// one VC, priority packets ride the last (highest) VC and best-effort
// traffic the rest is assigned VC 0 — the classic QoS arrangement the
// paper contrasts with SAGM splitting.
func vcOf(p *Packet, vcs int) int {
	if vcs > 1 && p.Priority {
		return vcs - 1
	}
	return 0
}

// step performs this router's work for one cycle: allocate free output
// VCs and forward at most one flit per output (the physical link carries
// one flit per cycle; the priority VC goes first).
//
// It reports whether the router must be stepped again next cycle even if
// nothing is delivered to it meanwhile. Three cases say yes: it granted a
// channel (the winner's head flit may have had to wait for its buffer's
// one forward per cycle), it launched a flit (more of the packet, or the
// buffer's next head, may follow), or an allocator declined to pick
// among waiting candidates (policies see the clock and may answer
// otherwise next cycle). Otherwise every free channel has no requester
// and every transfer lacks a credit or an arrived flit — a state only a
// delivery changes.
func (r *Router) step(now int64) (again bool) {
	for out := 0; out < NumPorts; out++ {
		o := &r.Out[out]
		if o.link == nil {
			continue // unconnected edge port
		}
		if r.want[out] == 0 {
			// No resident packet is routed here: nothing to allocate and
			// (since want covers packets mid-transfer) no active slot.
			continue
		}
		for vc := range o.active {
			if o.active[vc].pp == nil && r.allocate(out, vc, now) {
				again = true
			}
		}
		// Send one flit: highest VC (priority) first.
		for vc := len(o.active) - 1; vc >= 0; vc-- {
			a := &o.active[vc]
			if a.pp == nil || o.credits[vc] <= 0 || !a.buf.canForward(a.pp, now) {
				continue
			}
			head := a.pp.Sent == 0
			o.link.launch(a.pp.Pkt, head, vc)
			o.credits[vc]--
			o.BusyCycles++
			again = true
			if a.buf.forwardFlit(a.pp, now) {
				// forwardFlit released the PacketProgress to the pool; drop
				// the transfer slot without touching it again.
				r.want[out]--
				a.pp, a.buf = nil, nil
			}
			break
		}
	}
	return again
}

// allocate gathers the input-buffer heads of the given VC requesting
// output port out and asks the port's allocator to pick a winner. The
// candidate lists live in the router's scratch arrays — no per-cycle
// allocation. It reports whether the allocator was consulted (a grant or
// a refusal, either of which keeps the router awake); false means no
// head requests the channel.
func (r *Router) allocate(out, vc int, now int64) bool {
	n := 0
	for in := 0; in < NumPorts; in++ {
		b := &r.In[in].bufs[vc]
		pp := b.head()
		if pp == nil || int(pp.route) != out {
			continue
		}
		r.cands[n] = Candidate{Pkt: pp.Pkt, Port: in}
		r.candBufs[n] = b
		n++
	}
	if n == 0 {
		return false
	}
	o := &r.Out[out]
	idx := o.alloc.Select(r.cands[:n], now)
	if idx < 0 {
		return true
	}
	buf := r.candBufs[idx]
	o.active[vc] = activeXfer{buf: buf, pp: buf.head()}
	o.Grants++
	o.alloc.OnScheduled(r.cands[idx].Pkt, now)
	return true
}

// fifoAllocator is the default placeholder policy: it grants the first
// candidate in port order. Real configurations install round-robin,
// priority-first, or GSS allocators.
type fifoAllocator struct{}

func (fifoAllocator) OnPacketArrival(*Packet, int64)    {}
func (fifoAllocator) Select(c []Candidate, _ int64) int { return 0 }
func (fifoAllocator) OnScheduled(*Packet, int64)        {}
