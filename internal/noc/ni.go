package noc

import (
	"fmt"

	"aanoc/internal/sim"
)

// Injector is the sending half of a network interface: it queues packets
// per virtual channel and streams their flits into the local input port
// of its router, subject to credits. With multiple VCs a priority packet
// is injected on the priority VC and its flits take the local link ahead
// of any best-effort packet mid-transfer.
type Injector struct {
	link    *Link
	credits []int

	queues []packetFIFO
	sent   []int // flits of each VC's queue head already launched

	queuedFlits int   // unsent flits across VCs, maintained incrementally
	flitsHWM    int   // high-water mark of queuedFlits over the run
	launched    int64 // cumulative flits launched into the mesh

	// OnFirstFlit, when set, is invoked as a packet's head flit enters
	// the network — the reference point for network-entry latency.
	OnFirstFlit func(p *Packet, now int64)

	// Producer, when set, is the injecting component's kernel handle: the
	// mesh's delivery wakes it as it returns a credit on a VC with a
	// packet queued — the one event that can turn CanLaunch true from
	// outside. A credit for an empty queue wakes no one.
	Producer *sim.Handle
}

// packetFIFO is one VC's injection queue, linked through Packet.next: a
// packet sits in at most one injection queue at a time, so queueing needs
// no storage of its own and a pop is O(1).
type packetFIFO struct{ head, tail *Packet }

func (q *packetFIFO) push(p *Packet) {
	if p.next != nil || p == q.tail {
		panic(fmt.Sprintf("noc: packet %d enqueued while already queued", p.ID))
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
}

// pop unlinks the head, so a popped packet carries no queue pointer.
func (q *packetFIFO) pop() {
	p := q.head
	q.head, p.next = p.next, nil
	if q.head == nil {
		q.tail = nil
	}
}

func (inj *Injector) addCredits(vc, n int, now int64) {
	inj.credits[vc] += n
	if inj.Producer != nil && inj.queues[vc].head != nil {
		inj.Producer.Wake(now)
	}
}

func (inj *Injector) creditBalance(vc int) int { return inj.credits[vc] }

// Enqueue appends a packet to the injection queue of its virtual channel.
// The packet must not sit in any injection queue already; it leaves this
// one as its last flit launches.
func (inj *Injector) Enqueue(p *Packet) {
	inj.queues[vcOf(p, len(inj.queues))].push(p)
	inj.queuedFlits += p.Flits
	if inj.queuedFlits > inj.flitsHWM {
		inj.flitsHWM = inj.queuedFlits
	}
}

// QueueFlits returns the number of unsent flits waiting in the injection
// queues; network interfaces use it to backpressure their traffic source.
func (inj *Injector) QueueFlits() int { return inj.queuedFlits }

// QueueFlitsHWM returns the high-water mark of the injection backlog in
// flits — how close the NI queue came to its cap over the run.
func (inj *Injector) QueueFlitsHWM() int { return inj.flitsHWM }

// CanLaunch reports whether Step would launch a flit: some VC has both
// a queued packet and a credit. While false, Step is a no-op and stays
// one until an Enqueue or a credit's return.
func (inj *Injector) CanLaunch() bool {
	for vc := range inj.queues {
		if inj.queues[vc].head != nil && inj.credits[vc] > 0 {
			return true
		}
	}
	return false
}

// Step launches at most one flit, serving the priority VC first. Call
// at most once per cycle, after the mesh's Cycle.
func (inj *Injector) Step(now int64) {
	for vc := len(inj.queues) - 1; vc >= 0; vc-- {
		q := &inj.queues[vc]
		if q.head == nil || inj.credits[vc] <= 0 {
			continue
		}
		p := q.head
		head := inj.sent[vc] == 0
		inj.link.launch(p, head, vc)
		if head && inj.OnFirstFlit != nil {
			inj.OnFirstFlit(p, now)
		}
		inj.credits[vc]--
		inj.sent[vc]++
		inj.queuedFlits--
		inj.launched++
		if inj.sent[vc] == p.Flits {
			q.pop()
			inj.sent[vc] = 0
		}
		return
	}
}

// Sink is the receiving half of a network interface. Arriving flits land
// in small credit-managed per-VC buffers and are drained by Step into a
// reassembly area; completed packets queue in a bounded ready list the
// consumer (memory subsystem or core) pops from, priority VC first. When
// the consumer stops popping, the ready list fills, draining stops, the
// flit buffers fill, and credit backpressure propagates into the mesh —
// so a packet longer than the flit buffer still flows through as long as
// the consumer keeps up.
type Sink struct {
	port     inputPort
	maxReady int
	ready    []*Packet
	readyHWM int   // high-water mark of the ready list over the run
	drained  int64 // cumulative flits drained out of the credit buffers

	// Consumer, when set, is the consuming component's kernel handle,
	// woken as each flit lands in the sink's credit buffers — every flit,
	// not just packet heads, because a partially drained packet stalls on
	// exactly one missing flit. The consumer stays awake on its own only
	// while CanDrain: a full ready list waits on its Pop, everything else
	// on the next arrival.
	Consumer *sim.Handle
}

// Step drains arrived flits into the reassembly area, priority VC first.
// Call at most once per cycle after the mesh's Cycle.
func (s *Sink) Step(now int64) {
	for vc := len(s.port.bufs) - 1; vc >= 0; vc-- {
		s.drainVC(vc)
	}
}

func (s *Sink) drainVC(vc int) {
	buf := &s.port.bufs[vc]
	for len(s.ready) < s.maxReady {
		pp := buf.head()
		if pp == nil {
			return
		}
		for pp.Arrived > pp.Sent {
			pp.Sent++
			s.drained++
			buf.occupied--
			buf.feed.returnCredit(vc)
		}
		if pp.Sent < pp.Pkt.Flits {
			return // the head still misses a flit: the packets behind it wait
		}
		s.ready = append(s.ready, pp.Pkt)
		buf.pop()
		buf.feed.m.progress.Put(pp)
		if len(s.ready) > s.readyHWM {
			s.readyHWM = len(s.ready)
		}
	}
}

// CanDrain reports whether Step would move a flit: the ready list has
// room and some VC's head packet holds a flit that has arrived and not
// been drained. While false, Step is a no-op and stays one until a flit
// arrives or a Pop makes room.
func (s *Sink) CanDrain() bool {
	if len(s.ready) >= s.maxReady {
		return false
	}
	for vc := range s.port.bufs {
		if pp := s.port.bufs[vc].head(); pp != nil && pp.Arrived > pp.Sent {
			return true
		}
	}
	return false
}

// Peek returns the oldest fully received packet, or nil.
func (s *Sink) Peek() *Packet {
	if len(s.ready) == 0 {
		return nil
	}
	return s.ready[0]
}

// Pop removes and returns the oldest fully received packet, or nil.
func (s *Sink) Pop(now int64) *Packet {
	if len(s.ready) == 0 {
		return nil
	}
	p := s.ready[0]
	copy(s.ready, s.ready[1:])
	s.ready[len(s.ready)-1] = nil
	s.ready = s.ready[:len(s.ready)-1]
	return p
}

// Ready reports the number of fully received packets awaiting the
// consumer.
func (s *Sink) Ready() int { return len(s.ready) }

// ReadyHWM returns the high-water mark of the ready list — how close the
// consumer came to letting backpressure propagate into the mesh.
func (s *Sink) ReadyHWM() int { return s.readyHWM }
