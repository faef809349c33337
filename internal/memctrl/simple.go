package memctrl

import (
	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

// Controller is the interface the system drives each cycle: offer arriving
// request packets and tick the command machinery.
type Controller interface {
	// Accepts reports whether Offer would take the packet now. It is the
	// pure half of Offer: it changes nothing, so an auditor may ask it.
	Accepts(p *noc.Packet) bool
	// Offer presents the next in-order request packet; it returns false
	// (leaving the packet with the caller) when the subsystem is full,
	// which backpressures the network. A refusal is remembered until the
	// room event reports that what Accepts tested has changed.
	Offer(p *noc.Packet, now int64) bool
	// OnRoom sets the room event: f is raised from inside Tick when
	// something Accepts tests has changed since an Offer was refused — a
	// grant popped a slot FIFO, the last column command of a request
	// freed a pipeline slot, a refresh drain ended. It is raised only
	// with a refusal outstanding, so nobody waiting means no call. The
	// caller re-offers in the next cycle, which is when per-cycle polling
	// would have first succeeded.
	OnRoom(f func())
	// Tick advances the controller one memory clock cycle.
	Tick(now int64)
	// Busy reports whether any admitted request is still in flight.
	Busy() bool
	// CanGrant reports whether the next Tick would arbitrate: a request
	// is queued ahead of the command pipeline and the pipeline has room.
	// While it holds, NextEvent is now+1.
	CanGrant() bool
	// NextEvent returns the next cycle (> now) Tick could possibly act —
	// grant a queued request, issue a command, retire a completion, or
	// start a refresh — judged from the controller's own state. The
	// simulation kernel skips the controller until then; a successful
	// Offer wakes it explicitly. math.MaxInt64 means "idle until offered
	// work".
	NextEvent(now int64) int64
}

// Simple is the paper's lightweight memory subsystem for SDRAM-aware and
// GSS NoC designs: because multiple routers already scheduled the request
// stream, it needs no reorder buffers and no scheduler — just the
// PRE/RAS/CAS command pipeline, served in arrival order, with the page
// policy (open for [4]/GSS, partially-open + AP for SAGM).
type Simple struct {
	eng *engine
	// last is a value copy of the most recently admitted packet: the
	// original may be recycled through the system's packet pool after it
	// completes, so holding a pointer past admission would read a
	// reused packet.
	last    noc.Packet
	hasLast bool

	// StreamStats classifies each adjacent pair of admitted requests by
	// the paper's SDRAM conditions — a direct measure of how
	// SDRAM-friendly the order delivered by the network is.
	StreamStats struct {
		RowHits     int64
		Interleaves int64
		Conflicts   int64
		Contentions int64
	}
}

// NewSimple builds the lightweight controller. depth is the command
// pipeline window (the paper's small PRE/RAS/CAS buffers); onDone receives
// completions. The pipeline is stage-skipping as in the paper's Fig. 6 —
// a row-hit request enters the CAS buffer directly and may overtake an
// older request still waiting in the PRE/RAS stages (same-bank order is
// preserved).
func NewSimple(dev *dram.Device, policy PagePolicy, depth int, onDone func(Completion)) *Simple {
	s := &Simple{eng: newEngine(dev, policy, depth, onDone)}
	s.eng.ooo = true
	return s
}

// Accepts implements Controller: the pipeline has room and no refresh
// is draining it.
func (s *Simple) Accepts(*noc.Packet) bool { return s.eng.canAdmit() }

// Offer implements Controller: admit in order while Accepts.
func (s *Simple) Offer(p *noc.Packet, now int64) bool {
	if !s.Accepts(p) {
		return s.eng.room.refuse()
	}
	if s.hasLast {
		switch {
		case noc.RowHit(&s.last, p):
			s.StreamStats.RowHits++
		case noc.BankConflict(&s.last, p):
			s.StreamStats.Conflicts++
		default:
			s.StreamStats.Interleaves++
		}
		if noc.DataContention(&s.last, p) {
			s.StreamStats.Contentions++
		}
	}
	s.last = *p
	s.hasLast = true
	s.eng.admit(p)
	return true
}

// OnRoom implements Controller.
func (s *Simple) OnRoom(f func()) { s.eng.room.on = f }

// Tick implements Controller. Admission tests the pipeline itself, so
// room is whatever leaves it admitting after the tick: a last column
// command, or the REF that ends a drain.
func (s *Simple) Tick(now int64) {
	s.eng.tick(now)
	if s.eng.canAdmit() {
		s.eng.room.raise()
	}
}

// Busy implements Controller.
func (s *Simple) Busy() bool { return s.eng.busy() }

// CanGrant implements Controller: nothing queues ahead of the pipeline.
func (s *Simple) CanGrant() bool { return false }

// NextEvent implements Controller.
func (s *Simple) NextEvent(now int64) int64 { return s.eng.nextEvent(now) }
