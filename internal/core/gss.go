// Package core implements the paper's primary contribution: the GSS
// (guaranteed SDRAM service) flow-control algorithm (Algorithm 1 with the
// Fig. 4 filter trees and short turn-around-interleaving bank counters)
// and the SAGM (SDRAM access granularity matching) packet splitter.
//
// A GSS instance is one flow controller: it arbitrates one router output
// channel on the path toward the memory subsystem. It tracks an aging
// token count per resident memory request packet and, whenever the channel
// frees, picks the next packet so that the stream arriving at the memory
// subsystem avoids bank conflict, data contention and (optionally) short
// turn-around bank interleaving while still bounding the waiting time of
// priority packets through the priority control token (PCT).
package core

import (
	"fmt"

	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// STIParams configures the short turn-around bank interleaving extension
// (Fig. 4(b)): per-bank countdown timers the flow controller arms when it
// schedules a packet that will close its bank (AP tag), estimating when
// the bank can be activated again.
type STIParams struct {
	Enabled bool
	// WriteIdle estimates the cycles from the end of a write data burst
	// until the bank is ready again (tWR + tRP in the paper).
	WriteIdle int64
	// ReadIdle estimates the cycles from the end of a read burst until
	// the bank is ready again (tRP in the paper).
	ReadIdle int64
}

// Config parameterises a GSS flow controller.
type Config struct {
	// PCT is the priority control token: the initial token count of a
	// priority packet. 1 degenerates to the priority-equal scheduler of
	// the SDRAM-aware router [4]; MaxTokens() degenerates to a
	// priority-first scheduler; intermediate values are the paper's
	// hybrid. Best-effort packets always start with one token.
	PCT int
	// Banks is the number of SDRAM banks (sizes the STI counters).
	Banks int
	// Subarrays is the row-buffer count per bank on a subarray-parallel
	// device (0 or 1: one buffer, the classic bank). When set, the flow
	// controller stops counting same-bank accesses to rows in different
	// subarrays as bank conflicts — their row buffers are independent, so
	// back-to-back scheduling costs no precharge/activate cycle.
	Subarrays int
	// STI enables the Fig. 4(b) filter tree with bank idle counters.
	STI STIParams
}

// MaxTokens returns the deepest filter tier for this configuration: 5 for
// the Fig. 4(a) tree, 6 for the Fig. 4(b) tree, matching the paper's
// "2 to 5 (or 6)" PCT range.
func (c Config) MaxTokens() int {
	if c.STI.Enabled {
		return 6
	}
	return 5
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.PCT < 1 || c.PCT > c.MaxTokens() {
		return fmt.Errorf("core: PCT %d outside [1,%d]", c.PCT, c.MaxTokens())
	}
	if c.Banks < 1 {
		return fmt.Errorf("core: need at least one bank, got %d", c.Banks)
	}
	if c.Subarrays < 0 {
		return fmt.Errorf("core: negative subarray count %d", c.Subarrays)
	}
	return nil
}

// entry is the per-resident-packet token state (t_i in Algorithm 1).
// A controller's entries form a list in arrival order rather than a map:
// resident counts are bounded by the router's input buffering (a
// handful), so a linear scan beats hashing on the per-cycle path, and
// unlinking keeps the arrival order. Entries are leased from the slab's
// pool at arrival and returned at grant, so a controller that never sees
// traffic holds none and the steady state allocates nothing.
type entry struct {
	pkt       *noc.Packet
	tokens    int
	seq       int64 // arrival order, used as the FIFO tiebreak
	arrivedAt int64
	next      *entry // the next resident in arrival order
}

// slab is what the controllers of one NewSlab share: the pool their
// entries come from and Select's per-candidate scratch. The controllers
// of a slab serve one simulation, which consults them one at a time.
type slab struct {
	pool sim.Pool[entry]

	// eidx holds each candidate's entry for the Select in progress. It
	// starts on eidxArr, enough for a router (one candidate per input
	// port); only a direct caller offering more candidates grows it.
	eidx    []*entry
	eidxArr [noc.NumPorts]*entry
}

// GSS is one guaranteed-SDRAM-service flow controller. It implements
// noc.Allocator.
type GSS struct {
	cfg     Config
	nextSeq int64
	slab    *slab

	// head/tail are the resident entries, oldest first.
	head, tail *entry
	// last is a value copy of h(n), the most recently granted packet —
	// a copy because the original may be recycled through the system's
	// packet pool after it completes.
	last    noc.Packet
	hasLast bool

	lastArrivalParent int64

	// bankIdleAt[b] is the absolute cycle bank b is estimated to accept a
	// new activation; armed when a scheduled packet carries an AP tag.
	bankIdleAt []int64
}

// New constructs a GSS flow controller.
func New(cfg Config) (*GSS, error) {
	gs, err := NewSlab(cfg, 1)
	if err != nil {
		return nil, err
	}
	return &gs[0], nil
}

// NewSlab constructs n GSS flow controllers of one configuration in one
// slab, their per-bank state carved from one backing slice and their
// resident entries drawn from one pool.
func NewSlab(cfg Config, n int) ([]GSS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gs := make([]GSS, n)
	idle := make([]int64, n*cfg.Banks)
	sl := &slab{}
	sl.eidx = sl.eidxArr[:]
	for i := range gs {
		lo, hi := i*cfg.Banks, (i+1)*cfg.Banks
		gs[i] = GSS{cfg: cfg, slab: sl, bankIdleAt: idle[lo:hi:hi]}
	}
	return gs, nil
}

// find returns a resident packet's entry, or nil.
func (g *GSS) find(p *noc.Packet) *entry {
	for e := g.head; e != nil; e = e.next {
		if e.pkt == p {
			return e
		}
	}
	return nil
}

// MustNew is New but panics on invalid configuration.
func MustNew(cfg Config) *GSS {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Config returns the controller's configuration.
func (g *GSS) Config() Config { return g.cfg }

// Tokens reports the current token count of a resident packet (0 if the
// packet is unknown); exported for tests and introspection.
func (g *GSS) Tokens(p *noc.Packet) int {
	if e := g.find(p); e != nil {
		return e.tokens
	}
	return 0
}

// OnPacketArrival implements Algorithm 1 lines 1-13: resident packets age
// by one token (starvation avoidance) and the new packet receives its
// initial tokens — PCT for a priority packet, one for best-effort.
// Packets arriving in the same cycle do not age each other (they are the
// simultaneous arrivals of one arbitration round), and the consecutive
// splits of one logical request age the others only once — a split chain
// is one unit of waiting, or token inflation would push every resident
// packet to the always-pass filter tier and disable SDRAM-aware ordering
// precisely in the SAGM configurations.
func (g *GSS) OnPacketArrival(p *noc.Packet, now int64) {
	if p.ParentID != g.lastArrivalParent {
		for e := g.head; e != nil; e = e.next {
			if e.arrivedAt < now {
				e.tokens++
			}
		}
	}
	g.lastArrivalParent = p.ParentID
	tok := 1
	if p.Priority {
		tok = g.cfg.PCT
	}
	g.nextSeq++
	e := g.slab.pool.Get()
	*e = entry{pkt: p, tokens: tok, seq: g.nextSeq, arrivedAt: now}
	if g.tail == nil {
		g.head = e
	} else {
		g.tail.next = e
	}
	g.tail = e
}

// conds are the Fig. 4 conditions of one candidate against h(n).
type conds struct {
	bankConflict   bool
	dataContention bool
	shortTurn      bool
	sibling        bool // split sibling of h(n): the T(0) continuation
}

func (g *GSS) condsFor(p *noc.Packet, now int64) conds {
	var c conds
	if g.cfg.STI.Enabled && g.bankIdleAt[p.Addr.Bank%g.cfg.Banks] > now {
		c.shortTurn = true
	}
	if !g.hasLast {
		return c
	}
	c.bankConflict = noc.BankConflict(&g.last, p)
	if c.bankConflict && g.cfg.Subarrays > 1 &&
		g.last.Addr.Row%g.cfg.Subarrays != p.Addr.Row%g.cfg.Subarrays {
		// Different subarrays of the same bank hold their rows
		// simultaneously — no row buffer is evicted, so no conflict.
		c.bankConflict = false
	}
	c.dataContention = noc.DataContention(&g.last, p)
	c.sibling = g.last.ParentID == p.ParentID && noc.RowHit(&g.last, p) && !c.dataContention
	return c
}

// tier returns the lowest token count whose Fig. 4 filter a candidate
// with these conditions passes. Each tier admits a superset of the one
// below, so a candidate holding t tokens passes exactly when t >= tier,
// and Algorithm 1's aging loop (lines 19-24) ends after
// max(tier - t, 0) rounds for it.
//
// Fig. 4(a) (bank conflict + data contention):
//
//	T(1): no bank conflict and no data contention
//	T(2): no bank conflict
//	T(3): not both (at most one of conflict/contention)
//	T(4+): always
//
// Fig. 4(b) (adds short turn-around interleaving):
//
//	T(1): no conflict, no contention, bank idle timer expired
//	T(2): no conflict, bank idle timer expired
//	T(3): no bank conflict
//	T(4): not both
//	T(5+): always
func tier(sti bool, c conds) int {
	t := 1
	switch {
	case c.bankConflict && c.dataContention:
		t = 4
	case c.bankConflict:
		t = 3
	case c.dataContention:
		t = 2
	}
	switch {
	case !sti:
	case c.bankConflict:
		t++ // 4(b) inserts its idle-timer tier below the conflict tiers
	case c.shortTurn:
		t = 3
	}
	return t
}

// Select implements the arbitration of Algorithm 1 lines 14-25 plus the
// priority-packet exclusion of line 5. Candidates are the head packets of
// the router's input buffers requesting this channel. Algorithm 1 ages
// the candidates a token a round until one passes its tier; a candidate
// passes after max(tier - tokens, 0) rounds, so one pass finds the
// winner among those needing the fewest (no token count changes).
//
// Two interpretation decisions, recorded in DESIGN.md:
//
//   - Exclusion is evaluated among the competing candidates rather than
//     all residents: excluding a best-effort head on behalf of a priority
//     packet still buried behind it in the same FIFO would idle the
//     channel without helping the priority packet, and can deadlock.
//
//   - Selection is token-primary: among candidates passing after the
//     fewest aging rounds, the one with the most tokens wins (priority
//     beats best-effort on a tie, then earlier arrival). This realises
//     the paper's claimed degenerate cases exactly — PCT=1 gives
//     priority packets no edge (priority-equal, the [4] scheduler) and
//     PCT=max always wins (priority-first). The T(0) split-sibling
//     continuation overrides a best-effort winner but never a priority
//     winner ("a priority packet is always scheduled without any
//     interference").
func (g *GSS) Select(cands []noc.Candidate, now int64) int {
	sl := g.slab
	if len(cands) > len(sl.eidx) {
		sl.eidx = make([]*entry, len(cands))
	}
	// Robustness: adopt candidates the allocator was not told about
	// (e.g. after reconfiguration). Adoption ages the residents, so it
	// ends before any candidate is ranked.
	eidx := sl.eidx[:len(cands)]
	for i, c := range cands {
		e := g.find(c.Pkt)
		if e == nil {
			g.OnPacketArrival(c.Pkt, now)
			e = g.tail
		}
		eidx[i] = e
	}
	best, bestRounds, bestT0 := -1, 0, -1
	for i, c := range cands {
		// Line 5: a best-effort candidate targeting the bank of a
		// competing priority candidate is excluded.
		if !c.Pkt.Priority && priorityOnBank(cands, c.Pkt.Addr.Bank) {
			continue
		}
		e := eidx[i]
		cc := g.condsFor(c.Pkt, now)
		switch r := max(tier(g.cfg.STI.Enabled, cc)-e.tokens, 0); {
		case best < 0 || r < bestRounds:
			best, bestRounds = i, r
		case r == bestRounds:
			best = g.betterOf(cands, eidx, best, i)
		}
		if cc.sibling && (bestT0 < 0 || e.seq < eidx[bestT0].seq) {
			bestT0 = i
		}
	}
	if bestT0 >= 0 && !cands[best].Pkt.Priority {
		return bestT0
	}
	return best
}

// priorityOnBank reports whether a priority candidate targets bank.
func priorityOnBank(cands []noc.Candidate, bank int) bool {
	for _, c := range cands {
		if c.Pkt.Priority && c.Pkt.Addr.Bank == bank {
			return true
		}
	}
	return false
}

// betterOf ranks two candidates that pass after the same number of
// aging rounds: more tokens first, then priority, then earlier arrival.
// Raw token counts order identically to the aged counts because the
// aging increment is common to both.
func (g *GSS) betterOf(cands []noc.Candidate, eidx []*entry, cur, alt int) int {
	if cur < 0 {
		return alt
	}
	ce, ae := eidx[cur], eidx[alt]
	if ae.tokens > ce.tokens {
		return alt
	}
	if ae.tokens < ce.tokens {
		return cur
	}
	cp, ap := cands[cur].Pkt.Priority, cands[alt].Pkt.Priority
	if ap != cp {
		if ap {
			return alt
		}
		return cur
	}
	if ae.seq < ce.seq {
		return alt
	}
	return cur
}

// AuditTokens is the checked-mode walk over the controller's token
// table: every resident entry must hold at least one token (arrivals
// start at 1 or PCT and aging only adds), and the configured PCT must
// sit inside the filter-tree range its Validate accepted. Token counts
// above MaxTokens are legal — aging is unbounded and any count at or
// above a candidate's tier passes it — so they are not flagged. Each
// violation is reported through the closure.
func (g *GSS) AuditTokens(report func(kind, format string, args ...any)) {
	if g.cfg.PCT < 1 || g.cfg.PCT > g.cfg.MaxTokens() {
		report("pct-bound", "PCT %d outside [1,%d]", g.cfg.PCT, g.cfg.MaxTokens())
	}
	for e := g.head; e != nil; e = e.next {
		if e.tokens < 1 {
			report("token-bound", "resident packet %d holds %d tokens", e.pkt.ID, e.tokens)
		}
		if e.seq <= 0 || e.seq > g.nextSeq {
			report("token-bound", "resident packet %d carries sequence %d outside (0,%d]", e.pkt.ID, e.seq, g.nextSeq)
		}
	}
}

// unlink drops a resident packet's entry, keeping the others' arrival
// order, and returns it to the slab's pool.
func (g *GSS) unlink(p *noc.Packet) {
	var prev *entry
	for e := g.head; e != nil; prev, e = e, e.next {
		if e.pkt != p {
			continue
		}
		if prev == nil {
			g.head = e.next
		} else {
			prev.next = e.next
		}
		if g.tail == e {
			g.tail = prev
		}
		g.slab.pool.Put(e)
		return
	}
}

// OnScheduled records the grant: the packet becomes h(n), leaves the token
// table, and — when it carries an AP tag under STI — arms the bank idle
// counter with the router-side estimate of when the auto-precharged bank
// can be activated again (data transfer time plus tWR+tRP for writes, tRP
// for reads).
func (g *GSS) OnScheduled(p *noc.Packet, now int64) {
	g.unlink(p)
	g.last = *p
	g.hasLast = true
	if g.cfg.STI.Enabled && p.APTag {
		transfer := int64(noc.FlitsForBeats(p.Beats))
		idle := g.cfg.STI.ReadIdle
		if p.Kind == noc.Write {
			idle = g.cfg.STI.WriteIdle
		}
		at := now + transfer + idle
		b := p.Addr.Bank % g.cfg.Banks
		if at > g.bankIdleAt[b] {
			g.bankIdleAt[b] = at
		}
	}
}
