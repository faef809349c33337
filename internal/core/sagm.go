package core

import "aanoc/internal/noc"

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
// A request is cut on demand, one packet at a time, as the network
// interface's injector reaches it (Cut): nothing here allocates, and no
// split exists before it is about to enter the mesh.
type Splitter struct {
	// GranularityBeats is the maximum payload of one split packet.
	GranularityBeats int
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

// Size returns how many packets Cut makes of a request of the given kind
// and beats, and their flits together. A read request is a single command
// flit whatever its burst length — it cannot block a priority packet — so
// it travels unsplit and the memory subsystem applies the granularity
// matching (one BL-sized column command per granule, AP on the last when
// the request leaves its row). A write travels as one packet per granule.
func (s Splitter) Size(kind noc.Kind, beats int) (packets, flits int) {
	if kind == noc.Read {
		return 1, 1
	}
	g := s.GranularityBeats
	flits = beats / g * noc.FlitsForBeats(g)
	if rest := beats % g; rest > 0 {
		flits += noc.FlitsForBeats(rest)
	}
	return (beats + g - 1) / g, flits
}

// Cut turns p, which holds a logical request as generated (ID, Beats,
// Addr and APTag the whole request's), into the request's packet k, for
// k below Size's count, in place. Consecutive splits address consecutive
// columns of the same row (so their pairwise relation is a row-buffer hit
// and the GSS T(0) path schedules them back to back); the final split
// carries the AP tag that drives the memory subsystem's
// partially-open-page policy — the caller sets p.APTag to indicate
// whether this request is the application's last access to the row (tag
// it) or more row hits follow (leave the row open). A write's split k is
// numbered ID+1+k: the caller reserves that many IDs after the request's
// when it generates it. A read stays the request itself.
func (s Splitter) Cut(p *noc.Packet, k int) {
	p.ParentID = p.ID
	if p.Kind == noc.Read {
		p.Splits, p.Flits = 1, 1
		return
	}
	g := s.GranularityBeats
	n := (p.Beats + g - 1) / g
	p.ID += int64(1 + k)
	p.Beats = min(g, p.Beats-k*g)
	p.Addr.Col += k * g
	p.Splits = n
	p.APTag = p.APTag && k == n-1
	p.Flits = noc.FlitsForBeats(p.Beats)
}

// NoSplit prepares an unsplit request, in place, for designs without
// SAGM: the packet keeps its identity, is its own parent, and carries no
// AP tag (the memory subsystem runs a plain open-page policy with
// explicit precharges). The request travels as p alone.
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
