package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// DPQConfig sizes the dynamic-priority-queue arbiter.
type DPQConfig struct {
	// Requestors is the number of per-requestor FIFO queues (at least
	// one); a packet maps to queue SrcCore mod Requestors. Each buffers
	// slotDepth requests, and a full queue backpressures the network (the
	// WCET clock starts at admission, so refusals never consume bound
	// budget).
	Requestors int
}

// DefaultDPQConfig sizes the arbiter for the given requestor count.
func DefaultDPQConfig(requestors int) DPQConfig {
	return DPQConfig{Requestors: requestors}
}

// DPQ is a dynamic-priority-queue arbiter with analytically bounded
// access latency, after Shah et al.: per-requestor FIFOs served by a
// rotating priority list (the served requestor drops to the list's tail,
// so between two grants to one requestor at most Requestors-1 foreign
// grants interpose). The command pipeline is depth-1, strictly in order,
// and closed-page — every access pays the worst-case page cost, which is
// exactly what makes the per-request completion bound closed-form
// computable from the DDR timing package alone (check.DPQBound). The
// bound's inputs are reported through OnAdmit; checked mode compares
// every completion against the derived deadline.
type DPQ struct {
	queued
	cfg DPQConfig
	// order is the rotation list: queues are scanned in this order and a
	// served requestor moves to the tail.
	order []int

	// OnAdmit, when set, observes every accepted request with the facts
	// the WCET bound is computed from: the packet ID and beat count, the
	// request's 1-based position in its own queue, the engine occupancy
	// (requests admitted to the pipeline but not yet retired), and the
	// admission cycle. The controller reports facts only; the bound
	// arithmetic lives in internal/check.
	OnAdmit func(id int64, beats, queuePos, engineOcc int, now int64)
	// OnComplete, when set, observes every completion before the
	// downstream callback (which may recycle the packet).
	OnComplete func(id int64, at int64)
}

// NewDPQ builds the arbiter. The pipeline is fixed at depth 1 with the
// closed-page policy — both are load-bearing for the analytic bound.
func NewDPQ(dev *dram.Device, cfg DPQConfig, onDone func(Completion)) *DPQ {
	d := &DPQ{cfg: cfg, order: make([]int, cfg.Requestors)}
	for i := range d.order {
		d.order[i] = i
	}
	d.queued = newQueued(dev, ClosedPage, cfg.Requestors, 1, func(c Completion) {
		if d.OnComplete != nil {
			d.OnComplete(c.Pkt.ID, c.At)
		}
		onDone(c)
	})
	d.pick, d.granted = d.pickQueue, d.grant
	return d
}

// Offer implements Controller: enqueue into the requestor's FIFO.
// Acceptance starts the request's WCET clock.
func (d *DPQ) Offer(p *noc.Packet, now int64) bool {
	if !d.queued.Offer(p, now) {
		return false
	}
	if d.OnAdmit != nil {
		d.OnAdmit(p.ID, p.Beats, len(d.queues[d.slotOf(p)]), d.eng.occupancy(), now)
	}
	return true
}

// pickQueue returns the highest-priority backlogged requestor: the first
// one in the rotation list.
func (d *DPQ) pickQueue() int {
	for _, q := range d.order {
		if len(d.queues[q]) > 0 {
			return q
		}
	}
	return -1
}

// grant rotates the served requestor to the list's tail, making it the
// lowest priority.
func (d *DPQ) grant(q int, _ *noc.Packet, _ int64) {
	gi := 0
	for d.order[gi] != q {
		gi++
	}
	copy(d.order[gi:], d.order[gi+1:])
	d.order[len(d.order)-1] = q
}

// Config returns the configuration — the WCET bound monitor derives its
// requestor count from it, so the two cannot drift.
func (d *DPQ) Config() DPQConfig { return d.cfg }
