package noc

// Injector is the sending half of a network interface: it queues packets
// per virtual channel and streams their flits into the local input port
// of its router, subject to credits. With multiple VCs a priority packet
// is injected on the priority VC and its flits take the local link ahead
// of any best-effort packet mid-transfer.
type Injector struct {
	link    *Link
	credits []int

	queues [][]*Packet
	sent   []int // flits of each VC's queue head already launched

	queuedFlits int   // unsent flits across VCs, maintained incrementally
	flitsHWM    int   // high-water mark of queuedFlits over the run
	launched    int64 // cumulative flits launched into the mesh

	// OnFirstFlit, when set, is invoked as a packet's head flit enters
	// the network — the reference point for network-entry latency.
	OnFirstFlit func(p *Packet, now int64)

	// OnCredit, when set, is invoked as the mesh's delivery returns a
	// credit on a VC with a packet queued — the one event that can turn
	// CanLaunch true from outside. The simulation kernel uses it to wake
	// the injecting component; a credit for an empty queue wakes no one.
	OnCredit func()
}

func newInjector(vcs int) *Injector {
	return &Injector{
		credits: make([]int, vcs),
		queues:  make([][]*Packet, vcs),
		sent:    make([]int, vcs),
	}
}

func (inj *Injector) addCredits(vc, n int) {
	inj.credits[vc] += n
	if inj.OnCredit != nil && len(inj.queues[vc]) > 0 {
		inj.OnCredit()
	}
}

func (inj *Injector) creditBalance(vc int) int { return inj.credits[vc] }

// LaunchedFlits returns the cumulative number of flits this injector has
// launched into the mesh — one side of the audit's flit-conservation
// ledger.
func (inj *Injector) LaunchedFlits() int64 { return inj.launched }

// Enqueue appends a packet to the injection queue of its virtual channel.
func (inj *Injector) Enqueue(p *Packet) {
	vc := vcOf(p, len(inj.queues))
	inj.queues[vc] = append(inj.queues[vc], p)
	inj.queuedFlits += p.Flits
	if inj.queuedFlits > inj.flitsHWM {
		inj.flitsHWM = inj.queuedFlits
	}
}

// QueueFlits returns the number of unsent flits waiting in the injection
// queues; network interfaces use it to backpressure their traffic source.
func (inj *Injector) QueueFlits() int { return inj.queuedFlits }

// QueueFlitsHWM returns the high-water mark of the injection backlog in
// flits — how close the NI queue came to its InjectCap over the run.
func (inj *Injector) QueueFlitsHWM() int { return inj.flitsHWM }

// CanLaunch reports whether Step would launch a flit: some VC has both
// a queued packet and a credit. While false, Step is a no-op and stays
// one until an Enqueue or a credit's return.
func (inj *Injector) CanLaunch() bool {
	for vc, q := range inj.queues {
		if len(q) > 0 && inj.credits[vc] > 0 {
			return true
		}
	}
	return false
}

// Step launches at most one flit, serving the priority VC first. Call
// at most once per cycle, after the mesh's Cycle.
func (inj *Injector) Step(now int64) {
	for vc := len(inj.queues) - 1; vc >= 0; vc-- {
		q := inj.queues[vc]
		if len(q) == 0 || inj.credits[vc] <= 0 {
			continue
		}
		p := q[0]
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
			// Copy-shift pop keeps the queue's backing array (re-slicing
			// q[1:] would creep and force a reallocation per packet).
			copy(q, q[1:])
			q[len(q)-1] = nil
			inj.queues[vc] = q[:len(q)-1]
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
	partial  []int // flits of each VC's head packet already drained
	ready    []*Packet
	readyHWM int   // high-water mark of the ready list over the run
	drained  int64 // cumulative flits drained out of the credit buffers

	// OnArrival, when set, is invoked as each flit lands in the sink's
	// credit buffers — every flit, not just packet heads, because a
	// partially drained packet stalls on exactly one missing flit. The
	// simulation kernel uses it to wake the sink's consumer, which stays
	// awake on its own only while CanDrain: a full ready list waits on the
	// consumer's Pop, everything else on the next arrival.
	OnArrival func(now int64)
}

func newSink(vcs, queueFlits, maxReady int) *Sink {
	s := &Sink{maxReady: maxReady, partial: make([]int, vcs)}
	s.port.init(make([]InputBuffer, vcs), queueFlits, make([]*PacketProgress, vcs*queueFlits))
	return s
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
		drained := false
		for pp.Arrived > pp.Sent {
			pp.Sent++
			s.partial[vc]++
			s.drained++
			buf.occupied--
			if buf.feed != nil {
				buf.feed.returnCredit(vc)
			}
			drained = true
			if pp.Sent == pp.Pkt.Flits {
				s.ready = append(s.ready, pp.Pkt)
				buf.pop()
				buf.releaseProgress(pp)
				if len(s.ready) > s.readyHWM {
					s.readyHWM = len(s.ready)
				}
				s.partial[vc] = 0
				break
			}
		}
		if !drained || s.partial[vc] > 0 {
			return
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

// Occupied reports the flits currently held in the sink's credit buffers.
func (s *Sink) Occupied() int { return s.port.occupied() }

// Ready reports the number of fully received packets awaiting the
// consumer.
func (s *Sink) Ready() int { return len(s.ready) }

// ReadyHWM returns the high-water mark of the ready list — how close the
// consumer came to letting backpressure propagate into the mesh.
func (s *Sink) ReadyHWM() int { return s.readyHWM }

// DrainedFlits returns the cumulative number of flits drained from the
// sink's credit buffers — the delivery side of the audit's
// flit-conservation ledger.
func (s *Sink) DrainedFlits() int64 { return s.drained }
