// Package router provides the conventional flow-control policies the
// paper compares against: round-robin (the CONV design) and
// priority-first round-robin (the CONV+PFS design and the non-GSS routers
// of the Fig. 8 sweep). The SDRAM-aware policies ([4] and GSS) come from
// internal/core — [4] is the GSS engine at PCT=1 and [4]+PFS at PCT=max,
// as the paper states.
package router

import "aanoc/internal/noc"

// RoundRobin grants the output channel to input ports in rotating order,
// the conventional best-effort NoC arbitration.
type RoundRobin struct {
	next    int
	granted int
}

// OnPacketArrival implements noc.Allocator; round-robin keeps no
// per-packet state.
func (r *RoundRobin) OnPacketArrival(*noc.Packet, int64) {}

// Select picks the first candidate at or after the rotating pointer.
func (r *RoundRobin) Select(cands []noc.Candidate, _ int64) int {
	if len(cands) == 0 {
		return -1
	}
	best, bestKey := 0, r.portKey(cands[0].Port)
	for i := 1; i < len(cands); i++ {
		if k := r.portKey(cands[i].Port); k < bestKey {
			best, bestKey = i, k
		}
	}
	r.granted = cands[best].Port
	return best
}

// portKey orders ports relative to the rotating pointer.
func (r *RoundRobin) portKey(port int) int {
	return (port - r.next + noc.NumPorts) % noc.NumPorts
}

// OnScheduled advances the rotating pointer one past the granted port.
func (r *RoundRobin) OnScheduled(p *noc.Packet, _ int64) {
	r.next = (r.granted + 1) % noc.NumPorts
}

// PriorityFirst wraps another policy: priority packets always win over
// best-effort packets; ties within a class fall through to the inner
// policy. With a RoundRobin inner policy this is the paper's PFS service.
// The zero value with Inner set is ready to use; it keeps no scratch.
type PriorityFirst struct {
	Inner noc.Allocator
}

// OnPacketArrival forwards to the inner policy.
func (p *PriorityFirst) OnPacketArrival(pkt *noc.Packet, now int64) {
	p.Inner.OnPacketArrival(pkt, now)
}

// Select restricts the candidate set to priority packets when any are
// present, then delegates. It moves the priority candidates to the front
// of cands by a stable partition (both classes keep their relative
// order), so the inner policy sees them in the order they were offered
// and the returned index refers to the partitioned slice.
func (p *PriorityFirst) Select(cands []noc.Candidate, now int64) int {
	n := 0
	for i, c := range cands {
		if c.Pkt.Priority {
			copy(cands[n+1:i+1], cands[n:i])
			cands[n] = c
			n++
		}
	}
	if n == 0 {
		return p.Inner.Select(cands, now)
	}
	return p.Inner.Select(cands[:n], now)
}

// OnScheduled forwards to the inner policy.
func (p *PriorityFirst) OnScheduled(pkt *noc.Packet, now int64) {
	p.Inner.OnScheduled(pkt, now)
}
