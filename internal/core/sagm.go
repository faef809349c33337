package core

import (
	"fmt"

	"aanoc/internal/noc"
)

// Splitter implements SAGM: it cuts a logical memory request into short
// packets whose payload is at most the SDRAM access granularity, so that
// (a) the memory subsystem never has to over-fetch a whole device burst
// for a small request, and (b) a long best-effort packet can no longer
// block a priority packet for more than one granule under winner-take-all
// channel allocation.
//
// The granularity is chosen per DDR generation as in the paper: DDR I/II
// devices are run in BL4 mode (4 beats per column command), DDR III in
// BL8 mode with on-the-fly BC4 chop (8 beats, choppable to 4).
//
// Ownership: Split appends into a list the caller owns and reuses (the
// system keeps one, valid until its next request is packetised), and
// draws the packets themselves from Alloc — nothing here allocates per
// request once both are warm.
type Splitter struct {
	// GranularityBeats is the maximum payload of one split packet.
	GranularityBeats int
	// Alloc, when set, supplies the packet structs for write splits —
	// the system passes its recycling pool here so a saturated run's
	// steady state allocates no packets. Every field of the returned
	// packet is overwritten. nil falls back to plain allocation.
	Alloc func() *noc.Packet
}

// SplitGranularity returns the paper's split granularity in data beats
// for a DDR generation: 4 beats (one BL4 access) for DDR I/II, 8 beats
// (one BL8 access) for DDR III.
func SplitGranularity(gen int) int {
	if gen >= 3 {
		return 8
	}
	return 4
}

// Split cuts the logical request p into packets of at most
// GranularityBeats beats and appends them to dst, returning the extended
// slice: the caller owns the list and reuses its backing array from one
// request to the next, so splitting allocates nothing once dst has grown
// to the longest chain. Consecutive splits address consecutive columns
// of the same row (so their pairwise relation is a row-buffer hit and the
// GSS T(0) path schedules them back to back); the final split carries the
// AP tag that drives the memory subsystem's partially-open-page policy —
// the caller sets p.APTag to indicate whether this request is the
// application's last access to the row (tag it) or more row hits follow
// (leave the row open). newID allocates packet IDs. A request that
// already fits appends a single packet; on error dst is returned as given.
func (s Splitter) Split(dst []*noc.Packet, p *noc.Packet, newID func() int64) ([]*noc.Packet, error) {
	if s.GranularityBeats < 1 {
		return dst, fmt.Errorf("core: invalid split granularity %d", s.GranularityBeats)
	}
	if p.Beats < 1 {
		return dst, fmt.Errorf("core: packet %v has no payload", p)
	}
	if p.Kind == noc.Read {
		// A read request is a single command flit whatever its burst
		// length — it cannot block a priority packet — so it travels
		// unsplit and the memory subsystem applies the granularity
		// matching (one BL-sized column command per granule, AP on the
		// last when the request leaves its row).
		p.ParentID = p.ID
		p.Splits = 1
		p.Flits = 1
		return append(dst, p), nil
	}
	n := (p.Beats + s.GranularityBeats - 1) / s.GranularityBeats
	remaining := p.Beats
	col := p.Addr.Col
	for i := 0; i < n; i++ {
		beats := s.GranularityBeats
		if beats > remaining {
			beats = remaining
		}
		sp := s.allocPkt()
		*sp = *p // copy shared fields
		sp.ID = newID()
		sp.ParentID = p.ID
		sp.Beats = beats
		sp.Addr.Col = col
		sp.Splits = n
		sp.APTag = p.APTag && i == n-1
		sp.Flits = noc.FlitsForBeats(beats)
		dst = append(dst, sp)
		remaining -= beats
		col += beats
	}
	return dst, nil
}

// allocPkt draws from the configured pool, or the heap without one.
func (s Splitter) allocPkt() *noc.Packet {
	if s.Alloc != nil {
		return s.Alloc()
	}
	return new(noc.Packet)
}

// NoSplit prepares an unsplit request, in place, for designs without
// SAGM: the packet keeps its identity, is its own parent, and carries no
// AP tag (the memory subsystem runs a plain open-page policy with
// explicit precharges). The request's packet list is p alone.
func NoSplit(p *noc.Packet) {
	p.ParentID = p.ID
	p.Splits = 1
	p.APTag = false
	if p.Kind == noc.Write {
		p.Flits = noc.FlitsForBeats(p.Beats)
	} else {
		p.Flits = 1
	}
}
