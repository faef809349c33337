package core

import (
	"fmt"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// refGSS is the paper-literal GSS: one ordered slice of entries per
// controller, removal by copy-shift, Select's scratch grown on demand,
// and Select running Algorithm 1's aging loop (lines 19-24) round by
// round through passesFilter until some candidate passes. It is the
// oracle the pooled list and the one-pass Select must agree with. The
// parts neither rewrite touched — the filter conditions, h(n) and the
// STI counters — come from an inner controller whose own table stays
// empty.
type refGSS struct {
	inner             *GSS
	nextSeq           int64
	entries           []refEntry
	lastArrivalParent int64
	excluded          []bool
	eidx              []int
}

type refEntry struct {
	pkt       *noc.Packet
	tokens    int
	seq       int64
	arrivedAt int64
}

// passesFilter is the oracle's Fig. 4 filter for a packet holding t
// tokens, the tiers spelt out one by one (see tier in gss.go).
func passesFilter(sti bool, t int, c conds) bool {
	if !sti {
		switch {
		case t >= 4:
			return true
		case t == 3:
			return !c.bankConflict || !c.dataContention
		case t == 2:
			return !c.bankConflict
		default:
			return !c.bankConflict && !c.dataContention
		}
	}
	switch {
	case t >= 5:
		return true
	case t == 4:
		return !c.bankConflict || !c.dataContention
	case t == 3:
		return !c.bankConflict
	case t == 2:
		return !c.bankConflict && !c.shortTurn
	default:
		return !c.bankConflict && !c.dataContention && !c.shortTurn
	}
}

// TestTierIsLowestPassingTokenCount pins tier to the oracle filter over
// both trees and every condition set: tier is the lowest token count
// that passes, and every count from it up to MaxTokens passes too.
func TestTierIsLowestPassingTokenCount(t *testing.T) {
	for _, sti := range []bool{false, true} {
		maxTok := Config{STI: STIParams{Enabled: sti}}.MaxTokens()
		for bits := 0; bits < 8; bits++ {
			c := conds{bankConflict: bits&1 != 0, dataContention: bits&2 != 0, shortTurn: bits&4 != 0}
			lowest := -1
			for tok := 1; tok <= maxTok && lowest < 0; tok++ {
				if passesFilter(sti, tok, c) {
					lowest = tok
				}
			}
			if got := tier(sti, c); got != lowest {
				t.Errorf("sti=%t %+v: tier %d, lowest passing token count %d", sti, c, got, lowest)
			}
			for tok := lowest; tok <= maxTok; tok++ {
				if !passesFilter(sti, tok, c) {
					t.Errorf("sti=%t %+v: %d tokens fail above tier %d", sti, c, tok, lowest)
				}
			}
		}
	}
}

func (g *refGSS) find(p *noc.Packet) int {
	for i := range g.entries {
		if g.entries[i].pkt == p {
			return i
		}
	}
	return -1
}

func (g *refGSS) Tokens(p *noc.Packet) int {
	if i := g.find(p); i >= 0 {
		return g.entries[i].tokens
	}
	return 0
}

func (g *refGSS) OnPacketArrival(p *noc.Packet, now int64) {
	if p.ParentID != g.lastArrivalParent {
		for i := range g.entries {
			if g.entries[i].arrivedAt < now {
				g.entries[i].tokens++
			}
		}
	}
	g.lastArrivalParent = p.ParentID
	tok := 1
	if p.Priority {
		tok = g.inner.cfg.PCT
	}
	g.nextSeq++
	g.entries = append(g.entries, refEntry{pkt: p, tokens: tok, seq: g.nextSeq, arrivedAt: now})
}

func (g *refGSS) Select(cands []noc.Candidate, now int64) int {
	if len(cands) == 0 {
		return -1
	}
	if cap(g.excluded) < len(cands) {
		n := max(len(cands), noc.NumPorts)
		g.excluded = make([]bool, n)
		g.eidx = make([]int, n)
	}
	eidx := g.eidx[:len(cands)]
	for i, c := range cands {
		j := g.find(c.Pkt)
		if j < 0 {
			g.OnPacketArrival(c.Pkt, now)
			j = len(g.entries) - 1
		}
		eidx[i] = j
	}
	excluded := g.excluded[:len(cands)]
	anyIncluded := false
	for i, c := range cands {
		excluded[i] = false
		if !c.Pkt.Priority {
			for _, pc := range cands {
				if pc.Pkt.Priority && pc.Pkt.Addr.Bank == c.Pkt.Addr.Bank {
					excluded[i] = true
					break
				}
			}
		}
		if !excluded[i] {
			anyIncluded = true
		}
	}
	if !anyIncluded {
		return -1
	}
	cfg := g.inner.cfg
	maxTok := cfg.MaxTokens()
	for extra := 0; ; extra++ {
		best, bestT0 := -1, -1
		for i, c := range cands {
			if excluded[i] {
				continue
			}
			e := &g.entries[eidx[i]]
			t := min(e.tokens+extra, maxTok)
			cc := g.inner.condsFor(c.Pkt, now)
			if passesFilter(cfg.STI.Enabled, t, cc) {
				best = g.betterOf(cands, eidx, best, i)
			}
			if cc.sibling && (bestT0 < 0 || e.seq < g.entries[eidx[bestT0]].seq) {
				bestT0 = i
			}
		}
		if best >= 0 {
			if bestT0 >= 0 && !cands[best].Pkt.Priority {
				return bestT0
			}
			return best
		}
		if extra > maxTok {
			return -1
		}
	}
}

func (g *refGSS) betterOf(cands []noc.Candidate, eidx []int, cur, alt int) int {
	if cur < 0 {
		return alt
	}
	ce, ae := &g.entries[eidx[cur]], &g.entries[eidx[alt]]
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

func (g *refGSS) OnScheduled(p *noc.Packet, now int64) {
	if i := g.find(p); i >= 0 {
		copy(g.entries[i:], g.entries[i+1:])
		g.entries[len(g.entries)-1] = refEntry{}
		g.entries = g.entries[:len(g.entries)-1]
	}
	g.inner.OnScheduled(p, now) // h(n) and the STI counters
}

// TestGSSMatchesSliceReference drives the pooled one-pass controllers
// and the slice-based, aging-loop reference through the same random
// arrival / Select / OnScheduled sequences — split chains that age the
// table once, same-cycle arrivals, candidates nobody announced, sets
// larger than a router's — with and without STI, on one and four
// subarrays, and demands the same winner at every Select and the same
// Tokens for every resident packet after every step. Two controllers of one slab interleave, so they share
// the entry pool and Select's scratch as a router's outputs do.
func TestGSSMatchesSliceReference(t *testing.T) {
	for _, sti := range []bool{false, true} {
		for _, subs := range []int{1, 4} {
			t.Run(fmt.Sprintf("sti=%t/subarrays=%d", sti, subs), func(t *testing.T) {
				rng := sim.NewRNG(uint64(11 + subs))
				cfg := Config{Banks: 8, Subarrays: subs}
				if sti {
					cfg.STI = STIParams{Enabled: true, WriteIdle: 9, ReadIdle: 5}
				}
				cfg.PCT = 1 + rng.Intn(cfg.MaxTokens())
				gs, err := NewSlab(cfg, 2)
				if err != nil {
					t.Fatal(err)
				}
				const ctrls = 2
				var refs [ctrls]*refGSS
				var resident [ctrls][]*noc.Packet
				for i := range refs {
					refs[i] = &refGSS{inner: MustNew(cfg)}
				}
				id, parent := int64(0), int64(0)
				newPkt := func(now int64) *noc.Packet {
					id++
					if rng.Intn(3) != 0 {
						parent = id // else: the next split of the last chain
					}
					kind := noc.Read
					if rng.Intn(2) == 0 {
						kind = noc.Write
					}
					return &noc.Packet{
						ID: id, ParentID: parent, Kind: kind, Priority: rng.Intn(4) == 0,
						Addr:  dram.Address{Bank: rng.Intn(8), Row: rng.Intn(6)},
						Beats: 8, Flits: 4, Splits: 1, APTag: rng.Intn(3) == 0, Gen: now,
					}
				}
				selects := 0
				for now := int64(0); now < 4000; now++ {
					k := rng.Intn(ctrls)
					g, ref := &gs[k], refs[k]
					for n := rng.Intn(3); n > 0 && len(resident[k]) < 12; n-- {
						p := newPkt(now)
						g.OnPacketArrival(p, now)
						ref.OnPacketArrival(p, now)
						resident[k] = append(resident[k], p)
					}
					if rng.Intn(2) == 0 {
						var cands []noc.Candidate
						for _, p := range resident[k] {
							if len(cands) < noc.NumPorts+2 && rng.Intn(2) == 0 {
								cands = append(cands, noc.Candidate{Pkt: p, Port: len(cands) % noc.NumPorts})
							}
						}
						if rng.Intn(20) == 0 {
							stranger := newPkt(now) // adopted by both at Select
							cands = append(cands, noc.Candidate{Pkt: stranger, Port: 0})
							resident[k] = append(resident[k], stranger)
						}
						w, rw := g.Select(cands, now), ref.Select(cands, now)
						if w != rw {
							t.Fatalf("cycle %d ctrl %d: pooled picked %d, reference %d of %d", now, k, w, rw, len(cands))
						}
						selects++
						if w >= 0 {
							win := cands[w].Pkt
							g.OnScheduled(win, now)
							ref.OnScheduled(win, now)
							for i, p := range resident[k] {
								if p == win {
									resident[k] = append(resident[k][:i], resident[k][i+1:]...)
									break
								}
							}
						}
					}
					for c := range resident {
						for _, p := range resident[c] {
							if got, want := gs[c].Tokens(p), refs[c].Tokens(p); got != want {
								t.Fatalf("cycle %d ctrl %d packet %d: %d tokens, reference %d", now, c, p.ID, got, want)
							}
						}
					}
				}
				if selects < 1000 {
					t.Fatalf("only %d selects", selects)
				}
			})
		}
	}
}
