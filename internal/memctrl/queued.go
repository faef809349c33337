package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// queued is the front-end every scheduling controller shares: bounded
// per-slot FIFOs in front of the command pipeline, and the grant loop
// that moves one head at a time into the pipeline while it has room.
// Each FIFO is a fixed buffer of slotDepth entries, carved at
// construction and never reallocated: enqueue refuses past its capacity
// and the grant pops by copy-shift, so the backing array does not creep.
// What makes each embedder a scheduler stays with it: pick, granted and
// whatever it books at admission on top of Offer.
type queued struct {
	eng        *engine
	queues     [][]*noc.Packet
	backlog    int   // requests queued across all slots
	maxBacklog int   // backlog's high-water mark
	grants     int64 // heads moved into the pipeline, every scheduler's grant count

	// pick names the slot whose head is granted next, or -1 when no head
	// is eligible this cycle (it runs only while something is queued);
	// granted records the decision once that head is in the pipeline.
	// The embedder's constructor binds both, as method values, so the
	// per-tick path allocates nothing.
	pick    func() int
	granted func(slot int, p *noc.Packet, now int64)
}

// slotDepth is every slot FIFO's capacity: the paper's MemMax buffers 32
// requests per thread, and the related-work schedulers mirror it.
const slotDepth = 32

// newQueued builds the shared front-end over slots FIFOs (at least one)
// and a pipeline of the given depth.
func newQueued(dev *dram.Device, policy PagePolicy, slots, pipeline int, onDone func(Completion)) queued {
	q := queued{
		eng:    newEngine(dev, policy, pipeline, onDone),
		queues: make([][]*noc.Packet, slots),
	}
	buf := make([]*noc.Packet, slots*slotDepth)
	for i := range q.queues {
		q.queues[i] = buf[i*slotDepth : i*slotDepth : (i+1)*slotDepth]
	}
	return q
}

// slotOf folds a packet's source core onto the slots.
func (q *queued) slotOf(p *noc.Packet) int {
	s := p.SrcCore % len(q.queues)
	if s < 0 {
		s = 0
	}
	return s
}

// hasRoom reports whether a slot's FIFO can take another request; a full
// slot refuses, which backpressures the network.
func (q *queued) hasRoom(slot int) bool { return len(q.queues[slot]) < cap(q.queues[slot]) }

// Accepts implements Controller for the front-ends that fold the source
// core onto the slots: the core's FIFO has room.
func (q *queued) Accepts(p *noc.Packet) bool { return q.hasRoom(q.slotOf(p)) }

// Offer implements Controller for the front-ends that fold the source
// core onto the slots: p joins its core's FIFO while Accepts. MemMax,
// whose admission rule and thread mapping differ, keeps its own.
func (q *queued) Offer(p *noc.Packet, now int64) bool {
	if !q.Accepts(p) {
		return false
	}
	q.enqueue(q.slotOf(p), p)
	return true
}

// enqueue appends p to a slot's FIFO, which the caller found to have room.
func (q *queued) enqueue(slot int, p *noc.Packet) {
	q.queues[slot] = append(q.queues[slot], p)
	q.backlog++
	q.maxBacklog = max(q.maxBacklog, q.backlog)
}

// Tick implements Controller: grant picked heads into the command
// pipeline while it admits, then drive the pipeline.
func (q *queued) Tick(now int64) {
	for q.backlog > 0 && q.eng.canAdmit() {
		slot := q.pick()
		if slot < 0 {
			break
		}
		// Copy-shift pop: the slot keeps its buffer, and the vacated entry
		// is cleared so no pointer to a packet the system recycles lingers.
		fifo := q.queues[slot]
		p := fifo[0]
		copy(fifo, fifo[1:])
		fifo[len(fifo)-1] = nil
		q.queues[slot] = fifo[:len(fifo)-1]
		q.backlog--
		q.grants++
		q.eng.admit(p)
		q.granted(slot, p, now)
	}
	q.eng.tick(now)
}

// Grants counts the requests granted into the command pipeline.
func (q *queued) Grants() int64 { return q.grants }

// MaxBacklog is the most requests ever queued across all slots at once.
func (q *queued) MaxBacklog() int { return q.maxBacklog }

// Busy implements Controller.
func (q *queued) Busy() bool { return q.backlog > 0 || q.eng.busy() }

// CanGrant implements Controller.
func (q *queued) CanGrant() bool { return q.backlog > 0 && q.eng.canAdmit() }

// NextEvent implements Controller: while a grant is possible the
// scheduler arbitrates every cycle, because a pick may depend on the
// clock (the regulator's window; a head over budget now may be granted
// next cycle, and Throttled counts each such tick). With the pipeline
// full or a refresh draining it no grant can happen until the engine
// acts, so the engine's bound decides — it covers the column command
// that frees a slot and the REF that ends the drain, and the tick that
// issues either leaves CanGrant true for the next cycle.
func (q *queued) NextEvent(now int64) int64 {
	if q.CanGrant() {
		return now + 1
	}
	return q.eng.nextEvent(now)
}
