package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// stagedThreshold is the outstanding-request count above which a core is
// classified bandwidth-intensive ("heavy"), SMS-style. Outstanding counts
// requests admitted but not yet completed at the device.
const stagedThreshold = 4

// Staged is a staged heterogeneous scheduler in the spirit of SMS
// (Ausavarungnirun et al.): requestors are classified by their
// outstanding-request intensity — a core with more than stagedThreshold
// requests in flight is bandwidth-intensive ("heavy"), the rest are
// latency-sensitive ("light") — and the grant stage serves light heads
// round-robin before any heavy head. Heavy cores still drain round-robin
// among themselves, so classification shifts latency, not liveness: a
// heavy core's backlog completing moves it back to the light class.
type Staged struct {
	queued
	// outstanding[c] counts core c's requests admitted but not completed.
	outstanding []int
	heavy       []bool
	rotate      int

	// Stats counts scheduler decisions beyond queued's grants.
	Stats struct {
		HeavyGrants       int64
		Reclassifications int64
	}
}

// NewStaged builds the staged scheduler over a device for cores
// requestors (a packet maps to slot SrcCore mod cores), with a command
// pipeline of the given depth and page policy.
func NewStaged(dev *dram.Device, cores, pipeline int, policy PagePolicy, onDone func(Completion)) *Staged {
	s := &Staged{
		outstanding: make([]int, cores),
		heavy:       make([]bool, cores),
	}
	s.queued = newQueued(dev, policy, cores, pipeline, func(c Completion) {
		// The packet is still valid here; the downstream callback may
		// recycle it.
		core := s.slotOf(c.Pkt)
		if s.outstanding[core] > 0 {
			s.outstanding[core]--
		}
		s.reclassify(core)
		onDone(c)
	})
	s.eng.ooo = true
	s.pick, s.granted = s.pickCore, s.grant
	return s
}

// reclassify re-derives a core's intensity class from its outstanding
// count, counting flips.
func (s *Staged) reclassify(c int) {
	h := s.outstanding[c] > stagedThreshold
	if h != s.heavy[c] {
		s.heavy[c] = h
		s.Stats.Reclassifications++
	}
}

// Offer implements Controller: enqueue into the core's FIFO; admission
// raises the core's outstanding count (and possibly its class).
func (s *Staged) Offer(p *noc.Packet, now int64) bool {
	if !s.queued.Offer(p, now) {
		return false
	}
	c := s.slotOf(p)
	s.outstanding[c]++
	s.reclassify(c)
	return true
}

// pickCore returns the next backlogged light core in round-robin order,
// or failing that the next backlogged heavy one, or -1.
func (s *Staged) pickCore() int {
	heavy := -1
	for i := range s.queues {
		c := (s.rotate + i) % len(s.queues)
		if len(s.queues[c]) == 0 {
			continue
		}
		if !s.heavy[c] {
			return c
		}
		if heavy < 0 {
			heavy = c
		}
	}
	return heavy
}

// grant counts a heavy core's grant and moves the round-robin pointer
// past the granted core.
func (s *Staged) grant(c int, _ *noc.Packet, _ int64) {
	if s.heavy[c] {
		s.Stats.HeavyGrants++
	}
	s.rotate = (c + 1) % len(s.queues)
}
