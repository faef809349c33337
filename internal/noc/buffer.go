package noc

import "fmt"

// PacketProgress tracks a packet resident in one input buffer: how many of
// its flits have arrived from the upstream link and how many have been
// forwarded out. The packet occupies Arrived-Sent flit slots. route is the
// output port the owning router pinned at head arrival (unused in sink
// buffers). PacketProgress values are pooled per mesh: one is leased from
// the free-list as a head flit arrives and returned as the last flit
// leaves, so the steady-state hot path allocates nothing.
type PacketProgress struct {
	Pkt     *Packet
	Arrived int
	Sent    int
	route   int8
}

// InputBuffer is a FIFO flit buffer of one virtual channel on a router
// input port (or a sink queue). Wormhole flow control keeps packets in
// order within a VC: only the head packet may be forwarded, and flits of
// a packet arrive contiguously because the upstream sender finishes a
// packet on a VC before starting the next on that VC.
type InputBuffer struct {
	vc       int
	capacity int
	occupied int
	packets  []*PacketProgress

	// feed is the upstream link: flits forwarded out return credits on
	// it, and its mesh's pool holds the packets' progress records. Every
	// buffer a flit can reach has one (newLink sets it;
	// TestEveryDeliveringBufferIsFed pins it).
	feed *Link

	// router owns the buffer (nil in a sink): a packet's head flit
	// arriving here is registered with it (Router.onNewPacket), which pins
	// the packet's route and introduces it to that output's flow control.
	router *Router

	lastForwardCycle int64 // at most one flit leaves the buffer per cycle
}

// init sizes the buffer. fifo (empty, capacity entries) backs the packet
// FIFO for good: two or more queued packets each hold a flit slot (only
// a lone, partly arrived head can have forwarded everything it has), so
// the FIFO never outgrows the buffer.
func (b *InputBuffer) init(vc, capacity int, fifo []*PacketProgress) {
	b.vc = vc
	b.capacity = capacity
	b.packets = fifo
	b.lastForwardCycle = -1
}

// inputPort groups the virtual-channel buffers of one physical input.
// The buffers are a value slice allocated once at construction and never
// resized, so &bufs[vc] pointers taken by links stay valid.
type inputPort struct {
	bufs []InputBuffer
}

// init builds the port's VC buffers in bufs over fifos, one buffer and
// capacity entries of packet-FIFO backing per VC, both carved by the
// caller from slices it allocated once (per mesh, for router ports).
func (p *inputPort) init(bufs []InputBuffer, capacity int, fifos []*PacketProgress) {
	p.bufs = bufs
	for v := range p.bufs {
		p.bufs[v].init(v, capacity, fifos[v*capacity:v*capacity:(v+1)*capacity])
	}
}

// occupied sums flits held across the port's VCs.
func (p *inputPort) occupied() int {
	n := 0
	for i := range p.bufs {
		n += p.bufs[i].occupied
	}
	return n
}

// empty reports whether no packet occupies any VC of the port: a part
// of Mesh.Quiescent, kept with it.
func (p *inputPort) empty() bool {
	for i := range p.bufs {
		if len(p.bufs[i].packets) > 0 {
			return false
		}
	}
	return true
}

// pop removes the head entry with a copy-shift so the slice's backing
// array is reused forever instead of creeping forward one slot per
// packet (re-slicing b.packets[1:] would force a reallocation on almost
// every later append).
func (b *InputBuffer) pop() {
	n := len(b.packets)
	copy(b.packets, b.packets[1:])
	b.packets[n-1] = nil
	b.packets = b.packets[:n-1]
}

// acceptFlit stores one arriving flit. head marks the first flit of a
// packet. Credit flow control guarantees space; overflow is a protocol
// bug and panics.
func (b *InputBuffer) acceptFlit(p *Packet, head bool, now int64) {
	if b.occupied >= b.capacity {
		panic(fmt.Sprintf("noc: buffer overflow accepting %v (credit protocol violated)", p))
	}
	b.occupied++
	if head {
		pp := b.feed.m.progress.Get()
		pp.Pkt = p
		pp.Arrived = 1
		b.packets = append(b.packets, pp)
		if b.router != nil {
			b.router.onNewPacket(pp, now)
		}
		return
	}
	if len(b.packets) == 0 || b.packets[len(b.packets)-1].Pkt != p {
		panic(fmt.Sprintf("noc: interleaved flits of %v (wormhole protocol violated)", p))
	}
	b.packets[len(b.packets)-1].Arrived++
}

// head returns the packet at the front of the FIFO, or nil.
func (b *InputBuffer) head() *PacketProgress {
	if len(b.packets) == 0 {
		return nil
	}
	return b.packets[0]
}

// canForward reports whether the head packet has an unforwarded flit
// available and the buffer has not already forwarded a flit this cycle.
func (b *InputBuffer) canForward(pp *PacketProgress, now int64) bool {
	return pp.Arrived > pp.Sent && b.lastForwardCycle != now
}

// forwardFlit removes one flit of the head packet, returning a credit on
// the feeding link. It reports whether the packet is fully forwarded (and
// therefore popped from the FIFO). When it returns true the
// PacketProgress has been released back to the pool — the caller must
// drop its pointer without dereferencing it again.
func (b *InputBuffer) forwardFlit(pp *PacketProgress, now int64) bool {
	if b.head() != pp {
		panic("noc: forwarding a non-head packet")
	}
	if pp.Sent >= pp.Arrived {
		panic("noc: forwarding a flit that has not arrived")
	}
	pp.Sent++
	b.occupied--
	b.lastForwardCycle = now
	b.feed.returnCredit(b.vc)
	if pp.Sent == pp.Pkt.Flits {
		b.pop()
		b.feed.m.progress.Put(pp)
		return true
	}
	return false
}
