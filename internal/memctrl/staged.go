package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// StagedConfig sizes the staged heterogeneous scheduler.
type StagedConfig struct {
	// Cores is the number of classified requestors; a packet maps to slot
	// SrcCore mod Cores.
	Cores int
	// QueueDepth is the per-core request buffer depth.
	QueueDepth int
	// Threshold is the outstanding-request count above which a core is
	// classified bandwidth-intensive ("heavy"). Outstanding counts
	// requests admitted but not yet completed at the device.
	Threshold int
	// PipelineDepth is the command-pipeline window behind the scheduler.
	PipelineDepth int
	// Policy is the page policy of the command pipeline.
	Policy PagePolicy
}

// DefaultStagedConfig mirrors the MemMax buffer sizing with the SMS-style
// intensity threshold.
func DefaultStagedConfig(cores int) StagedConfig {
	return StagedConfig{
		Cores: cores, QueueDepth: 32, Threshold: 4,
		PipelineDepth: 4, Policy: OpenPage,
	}
}

// Staged is a staged heterogeneous scheduler in the spirit of SMS
// (Ausavarungnirun et al.): requestors are classified by their
// outstanding-request intensity — a core with more than Threshold
// requests in flight is bandwidth-intensive ("heavy"), the rest are
// latency-sensitive ("light") — and the grant stage serves light heads
// round-robin before any heavy head. Heavy cores still drain round-robin
// among themselves, so classification shifts latency, not liveness: a
// heavy core's backlog completing moves it back to the light class.
type Staged struct {
	queued
	cfg StagedConfig
	// outstanding[c] counts core c's requests admitted but not completed.
	outstanding []int
	heavy       []bool
	rotate      int

	// Stats counts scheduler decisions for the observability report.
	Stats struct {
		LightGrants       int64
		HeavyGrants       int64
		Reclassifications int64
	}
}

// NewStaged builds the staged scheduler over a device.
func NewStaged(dev *dram.Device, cfg StagedConfig, onDone func(Completion)) *Staged {
	atLeastOne(&cfg.Cores, &cfg.QueueDepth, &cfg.Threshold, &cfg.PipelineDepth)
	s := &Staged{
		cfg:         cfg,
		outstanding: make([]int, cfg.Cores),
		heavy:       make([]bool, cfg.Cores),
	}
	s.queued = newQueued(dev, cfg.Policy, cfg.Cores, cfg.QueueDepth, cfg.PipelineDepth, func(c Completion) {
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
	h := s.outstanding[c] > s.cfg.Threshold
	if h != s.heavy[c] {
		s.heavy[c] = h
		s.Stats.Reclassifications++
	}
}

// Offer implements Controller: enqueue into the core's FIFO; admission
// raises the core's outstanding count (and possibly its class).
func (s *Staged) Offer(p *noc.Packet, now int64) bool {
	if !s.Accepts(p) {
		return false
	}
	c := s.slotOf(p)
	s.enqueue(c, p)
	s.outstanding[c]++
	s.reclassify(c)
	return true
}

// pickCore returns the next backlogged light core in round-robin order,
// or failing that the next backlogged heavy one, or -1.
func (s *Staged) pickCore() int {
	heavy := -1
	for i := 0; i < s.cfg.Cores; i++ {
		c := (s.rotate + i) % s.cfg.Cores
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

// grant counts the decision by the granted core's class and moves the
// round-robin pointer past it.
func (s *Staged) grant(c int, _ *noc.Packet, _ int64) {
	if s.heavy[c] {
		s.Stats.HeavyGrants++
	} else {
		s.Stats.LightGrants++
	}
	s.rotate = (c + 1) % s.cfg.Cores
}
