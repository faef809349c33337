package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// The paper's MemMax is a 4-thread scheduler; each thread buffers
// slotDepth requests and memMaxDataFlits flits of payload.
const (
	memMaxThreads   = 4
	memMaxDataFlits = 32
)

// MemMaxConfig holds what a run decides of the conventional subsystem.
type MemMaxConfig struct {
	// PipelineDepth is the command look-ahead window of the Databahn-style
	// controller behind the scheduler.
	PipelineDepth int
	// PriorityFirst makes the arbiter always serve a thread whose head is
	// a priority packet first (the CONV+PFS design).
	PriorityFirst bool
}

// DefaultMemMaxConfig returns a look-ahead window of 4 without
// priority-first.
func DefaultMemMaxConfig() MemMaxConfig {
	return MemMaxConfig{PipelineDepth: 4}
}

// MemMax models the conventional memory subsystem: a Sonics-MemMax-style
// thread-based scheduler in front of a Denali-Databahn-style controller.
// Requests from different threads can be freely reordered; the arbiter
// prefers row-buffer hits, then bank-interleaved conflict-free requests,
// avoids data-bus turnarounds, and falls back to weighted round-robin
// among threads. The shared command pipeline prepares pages ahead of the
// active data transfer (command look-ahead).
type MemMax struct {
	queued
	priorityFirst bool
	served        [memMaxThreads]int64 // beats admitted per thread (bandwidth QoS accounting)
	// last is a value copy of the packet most recently admitted into the
	// pipeline (see Simple.last: the original may be recycled through
	// the system's packet pool once it completes).
	last    noc.Packet
	hasLast bool
}

// NewMemMax builds the conventional subsystem over a device.
func NewMemMax(dev *dram.Device, cfg MemMaxConfig, onDone func(Completion)) *MemMax {
	m := &MemMax{
		queued:        newQueued(dev, OpenPage, memMaxThreads, cfg.PipelineDepth, onDone),
		priorityFirst: cfg.PriorityFirst,
	}
	m.pick, m.granted = m.pickThread, m.grant
	return m
}

// threadOf maps a request to its QoS thread: demand traffic gets its own
// thread so the priority-first variant can serve it first; the remaining
// classes spread across the other threads.
func (m *MemMax) threadOf(p *noc.Packet) int {
	switch p.Class {
	case noc.ClassDemand:
		return 0
	case noc.ClassPrefetch:
		return 1
	case noc.ClassMedia:
		return 2 + p.SrcCore%(memMaxThreads-2)
	default:
		return memMaxThreads - 1
	}
}

// Accepts implements Controller, by traffic class where the other
// front-ends go by source core: the request buffer of the packet's
// thread has room and the thread's data buffer can hold the payload.
func (m *MemMax) Accepts(p *noc.Packet) bool {
	th := m.threadOf(p)
	if len(m.queues[th]) > 0 && m.dataOccupancy(th)+p.Flits > memMaxDataFlits {
		return false
	}
	return m.hasRoom(th)
}

// Offer implements Controller: enqueue into the request buffer of the
// packet's thread.
func (m *MemMax) Offer(p *noc.Packet, now int64) bool {
	if !m.Accepts(p) {
		return false
	}
	m.enqueue(m.threadOf(p), p)
	return true
}

// dataOccupancy sums the buffered payload flits of a thread's queue.
func (m *MemMax) dataOccupancy(th int) int {
	n := 0
	for _, p := range m.queues[th] {
		n += p.Flits
	}
	return n
}

// grant charges the granted thread's bandwidth account and remembers the
// request for the next pairwise score.
func (m *MemMax) grant(th int, p *noc.Packet, now int64) {
	m.served[th] += int64(p.Beats)
	m.last = *p
	m.hasLast = true
}

// pickThread implements the QoS arbitration: threads share the SDRAM
// bandwidth, so the backlogged thread with the least admitted beats is
// served next (deficit round robin over bandwidth, the "different
// bandwidths allocated to different threads" of the MemMax datasheet) —
// unless its head would cause a bank conflict or bus turnaround and some
// other backlogged head would not, in which case the scheduler skips
// ahead once ("prevents bank conflict and data contention") to the
// least-served clean head: it reorders across thread heads only, not
// within threads. One pass finds both candidates; when the least-served
// head is clean it is also the first clean head with the fewest beats.
// Priority-first configurations serve a priority head unconditionally.
func (m *MemMax) pickThread() int {
	best, clean := -1, -1
	for th, q := range m.queues {
		if len(q) == 0 {
			continue
		}
		if m.priorityFirst && q[0].Priority {
			return th
		}
		if best < 0 || m.served[th] < m.served[best] {
			best = th
		}
		if m.score(q[0]) >= 4 && (clean < 0 || m.served[th] < m.served[clean]) {
			clean = th
		}
	}
	if clean >= 0 {
		return clean
	}
	return best
}

// score ranks a candidate against the request the scheduler admitted
// last. MemMax sits in front of the Databahn-style controller and has no
// view of the device page table, so — unlike the SDRAM-aware routers — it
// can only judge the paper's pairwise conditions: row hit with the
// previous request > bank interleave > same-bank-new-row (conflict), with
// a penalty for turning the data bus around.
func (m *MemMax) score(p *noc.Packet) int {
	if !m.hasLast {
		return 0
	}
	s := 0
	switch {
	case noc.RowHit(&m.last, p):
		s = 6
	case noc.BankInterleave(&m.last, p):
		s = 4
	default:
		s = 0 // bank conflict
	}
	if noc.DataContention(&m.last, p) {
		s -= 3
	}
	return s
}
