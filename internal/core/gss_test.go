package core

import (
	"testing"
	"testing/quick"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func pkt(id int64, bank, row int, kind noc.Kind, pri bool) *noc.Packet {
	return &noc.Packet{
		ID: id, ParentID: id, Kind: kind, Priority: pri,
		Class: noc.ClassMedia, Beats: 8, Flits: 4, Splits: 1,
		Addr: dram.Address{Bank: bank, Row: row},
	}
}

// schedule runs repeated arbitrations over a shrinking candidate pool and
// returns the grant order. All packets are presented as simultaneous
// arrivals, mirroring the Fig. 1 example where six requests sit in the
// input buffers.
func schedule(t *testing.T, g *GSS, pool []*noc.Packet) []*noc.Packet {
	t.Helper()
	now := int64(0)
	for _, p := range pool {
		g.OnPacketArrival(p, now)
	}
	remaining := append([]*noc.Packet(nil), pool...)
	var order []*noc.Packet
	for len(remaining) > 0 {
		now++
		cands := make([]noc.Candidate, len(remaining))
		for i, p := range remaining {
			cands[i] = noc.Candidate{Pkt: p, Port: i % noc.NumPorts}
		}
		w := g.Select(cands, now)
		if w < 0 {
			t.Fatalf("Select returned -1 with %d candidates", len(remaining))
		}
		chosen := remaining[w]
		g.OnScheduled(chosen, now)
		order = append(order, chosen)
		remaining = append(remaining[:w], remaining[w+1:]...)
	}
	return order
}

func pos(order []*noc.Packet, id int64) int {
	for i, p := range order {
		if p.ID == id {
			return i
		}
	}
	return -1
}

// fig1Pool reproduces the Fig. 1 input buffer: two demand requests to the
// same bank with different rows, two prefetches, two video requests; all
// reads; prefetch2 and request2 share a bank+row (row hit pair).
func fig1Pool(priority bool) []*noc.Packet {
	d1 := pkt(1, 1, 10, noc.Read, priority) // demand 1, BA1
	d2 := pkt(2, 1, 20, noc.Read, priority) // demand 2, BA1, different RA
	p1 := pkt(3, 2, 30, noc.Read, false)    // prefetch 1, BA2
	p2 := pkt(4, 3, 40, noc.Read, false)    // prefetch 2, BA3
	r1 := pkt(5, 4%4, 50, noc.Read, false)  // request 1, BA0
	r2 := pkt(6, 3, 40, noc.Read, false)    // request 2, row hit with prefetch 2
	return []*noc.Packet{d1, p1, r1, d2, p2, r2}
}

func TestPriorityEqualAvoidsBankConflict(t *testing.T) {
	// PCT=1 is the SDRAM-aware scheduler [4]: demand packets get no
	// preference and the two same-bank demands are never scheduled
	// back-to-back (Fig. 1(b)).
	g := MustNew(Config{PCT: 1, Banks: 4})
	order := schedule(t, g, fig1Pool(false))
	i, j := pos(order, 1), pos(order, 2)
	if j == i+1 || i == j+1 {
		t.Fatalf("bank-conflicting demands scheduled adjacently: %v", ids(order))
	}
}

func TestPriorityFirstServesDemandsFirst(t *testing.T) {
	// PCT=MaxTokens is a priority-first scheduler (Fig. 1(c)): both
	// demand packets are granted before any best-effort packet.
	cfg := Config{PCT: 5, Banks: 4}
	g := MustNew(cfg)
	order := schedule(t, g, fig1Pool(true))
	if pos(order, 1) > 1 || pos(order, 2) > 1 {
		t.Fatalf("priority-first should schedule demands in the first two slots: %v", ids(order))
	}
}

func TestHybridSchedulesDemandEarlyWithoutConflict(t *testing.T) {
	// The hybrid (Fig. 1(d)): demand 1 first; demand 2 soon after but
	// separated from demand 1 by a packet to a different bank, so no bank
	// conflict reaches the memory.
	g := MustNew(Config{PCT: 2, Banks: 4})
	order := schedule(t, g, fig1Pool(true))
	i, j := pos(order, 1), pos(order, 2)
	if i != 0 {
		t.Fatalf("demand 1 should be granted first: %v", ids(order))
	}
	if j == 1 {
		t.Fatalf("hybrid should not schedule conflicting demand 2 immediately: %v", ids(order))
	}
	if j > 2 {
		t.Fatalf("hybrid should schedule demand 2 early (slot <= 2): %v", ids(order))
	}
	// No adjacent pair in the whole order may be a bank conflict: tokens
	// are low, so the filter should have resolved all of them.
	for k := 1; k < len(order); k++ {
		if noc.BankConflict(order[k-1], order[k]) {
			t.Fatalf("bank conflict between slots %d and %d: %v", k-1, k, ids(order))
		}
	}
}

func ids(order []*noc.Packet) []int64 {
	out := make([]int64, len(order))
	for i, p := range order {
		out[i] = p.ID
	}
	return out
}

func TestSplitSiblingContinuationPreferred(t *testing.T) {
	// After scheduling one split of a logical request, the next split
	// (the T(0) path) wins over an older best-effort packet with more
	// tokens.
	g := MustNew(Config{PCT: 2, Banks: 4})
	old := pkt(1, 2, 5, noc.Read, false)
	first := pkt(2, 1, 7, noc.Read, false)
	sibling := pkt(3, 1, 7, noc.Read, false)
	first.ParentID, sibling.ParentID = 42, 42
	g.OnPacketArrival(old, 0)
	g.OnPacketArrival(first, 1)
	g.OnPacketArrival(sibling, 1)
	g.OnScheduled(first, 2) // h(n) = bank1 row7, parent 42
	w := g.Select([]noc.Candidate{{Pkt: old, Port: 0}, {Pkt: sibling, Port: 1}}, 3)
	if w != 1 {
		t.Fatalf("split sibling should win, got candidate %d", w)
	}
	// A priority packet with a token edge (PCT=2), however, preempts the
	// sibling chain.
	pri := pkt(4, 3, 1, noc.Read, true)
	g.OnPacketArrival(pri, 3)
	w = g.Select([]noc.Candidate{{Pkt: sibling, Port: 0}, {Pkt: pri, Port: 1}}, 4)
	if w != 1 {
		t.Fatalf("priority packet should preempt the sibling chain, got %d", w)
	}
}

func TestRowHitWithContentionNotPreferred(t *testing.T) {
	// A row-hit packet that turns the bus around does not take the T(0)
	// shortcut.
	g := MustNew(Config{PCT: 1, Banks: 4})
	prev := pkt(1, 1, 7, noc.Read, false)
	hitButWrite := pkt(2, 1, 7, noc.Write, false)
	cleanRead := pkt(3, 2, 9, noc.Read, false)
	g.OnPacketArrival(hitButWrite, 0)
	g.OnPacketArrival(cleanRead, 0)
	g.OnScheduled(prev, 1)
	w := g.Select([]noc.Candidate{{Pkt: hitButWrite, Port: 0}, {Pkt: cleanRead, Port: 1}}, 2)
	if w != 1 {
		t.Fatalf("contention-free bank-interleaved read should win, got %d", w)
	}
}

func TestExclusionBlocksSameBankBestEffort(t *testing.T) {
	// A best-effort candidate sharing a bank with a priority candidate is
	// excluded until the priority packet is scheduled (Algorithm 1 line 5)
	// — even when the best-effort packet holds more tokens.
	g := MustNew(Config{PCT: 1, Banks: 4})
	be := pkt(1, 1, 5, noc.Read, false)
	pri := pkt(2, 1, 9, noc.Read, true)
	g.OnPacketArrival(be, 0)
	g.OnPacketArrival(pri, 1) // ages be to 2 tokens; pri holds 1 (PCT=1)
	if g.Tokens(be) != 2 || g.Tokens(pri) != 1 {
		t.Fatalf("token setup wrong: be=%d pri=%d", g.Tokens(be), g.Tokens(pri))
	}
	w := g.Select([]noc.Candidate{{Pkt: be, Port: 0}, {Pkt: pri, Port: 1}}, 2)
	if w != 1 {
		t.Fatalf("priority packet should be granted, got %d", w)
	}
	// Without the bank overlap the best-effort packet's tokens win.
	g2 := MustNew(Config{PCT: 1, Banks: 4})
	be2 := pkt(3, 2, 5, noc.Read, false)
	pri2 := pkt(4, 1, 9, noc.Read, true)
	g2.OnPacketArrival(be2, 0)
	g2.OnPacketArrival(pri2, 1)
	if w := g2.Select([]noc.Candidate{{Pkt: be2, Port: 0}, {Pkt: pri2, Port: 1}}, 2); w != 0 {
		t.Fatalf("aged best-effort packet should win at PCT=1, got %d", w)
	}
}

func TestAgingPreventsStarvation(t *testing.T) {
	// A best-effort packet in permanent bank conflict with the scheduled
	// stream still gets granted once its tokens reach the always-pass
	// tier: a stream of row-hit packets cannot starve it forever.
	g := MustNew(Config{PCT: 1, Banks: 4})
	victim := pkt(100, 1, 99, noc.Read, false)
	g.OnPacketArrival(victim, 0)
	seed := pkt(101, 1, 1, noc.Read, false)
	g.OnPacketArrival(seed, 0)
	g.OnScheduled(seed, 0) // h(n): bank1 row1 — victim is a bank conflict
	granted := false
	for i := int64(0); i < 20 && !granted; i++ {
		fresh := pkt(200+i, 1, 1, noc.Read, false) // endless row hits
		g.OnPacketArrival(fresh, i)
		w := g.Select([]noc.Candidate{{Pkt: victim, Port: 0}, {Pkt: fresh, Port: 1}}, i)
		if w == 0 {
			granted = true
			break
		}
		g.OnScheduled(fresh, i)
	}
	if !granted {
		t.Fatal("aged packet was starved by a row-hit stream")
	}
}

func TestSTICounterSteersAwayFromClosingBank(t *testing.T) {
	sti := STIParams{Enabled: true, WriteIdle: 23, ReadIdle: 11}
	g := MustNew(Config{PCT: 1, Banks: 8, STI: sti})
	// Schedule a tagged write to bank 3: the bank idle counter arms.
	w := pkt(1, 3, 5, noc.Write, false)
	w.APTag = true
	g.OnPacketArrival(w, 0)
	g.OnScheduled(w, 0)
	// Now a fresh write to bank 3 (same row, so no bank conflict — but
	// the bank is being auto-precharged) competes with a write to bank 4.
	same := pkt(2, 3, 5, noc.Write, false)
	other := pkt(3, 4, 5, noc.Write, false)
	g.OnPacketArrival(same, 1)
	g.OnPacketArrival(other, 1)
	got := g.Select([]noc.Candidate{{Pkt: same, Port: 0}, {Pkt: other, Port: 1}}, 2)
	if got != 1 {
		t.Fatalf("STI should steer to the idle bank, got %d", got)
	}
	// Long after the counter expires the same-bank packet is fine again.
	g2 := MustNew(Config{PCT: 1, Banks: 8, STI: sti})
	g2.OnPacketArrival(w, 0)
	g2.OnScheduled(w, 0)
	g2.OnPacketArrival(same, 1)
	late := int64(100)
	if g2.Select([]noc.Candidate{{Pkt: same, Port: 0}}, late) != 0 {
		t.Fatal("expired STI counter should not block")
	}
}

func TestTokensQueryAndConfig(t *testing.T) {
	g := MustNew(Config{PCT: 3, Banks: 4})
	if g.Config().PCT != 3 {
		t.Fatal("Config not preserved")
	}
	p := pkt(1, 0, 0, noc.Read, true)
	if g.Tokens(p) != 0 {
		t.Fatal("unknown packet should have 0 tokens")
	}
	g.OnPacketArrival(p, 0)
	if g.Tokens(p) != 3 {
		t.Fatalf("priority packet tokens = %d, want PCT=3", g.Tokens(p))
	}
	q := pkt(2, 0, 0, noc.Read, false)
	g.OnPacketArrival(q, 1)
	if g.Tokens(p) != 4 || g.Tokens(q) != 1 {
		t.Fatalf("aging broken: p=%d q=%d", g.Tokens(p), g.Tokens(q))
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{PCT: 0, Banks: 4}); err == nil {
		t.Error("PCT 0 should be rejected")
	}
	if _, err := New(Config{PCT: 6, Banks: 4}); err == nil {
		t.Error("PCT 6 without STI should be rejected (max 5)")
	}
	if _, err := New(Config{PCT: 6, Banks: 4, STI: STIParams{Enabled: true}}); err != nil {
		t.Errorf("PCT 6 with STI should be accepted: %v", err)
	}
	if _, err := New(Config{PCT: 1, Banks: 0}); err == nil {
		t.Error("0 banks should be rejected")
	}
}

func TestPropertyFilterMonotoneInTokens(t *testing.T) {
	// If a packet passes tier t it must pass every tier above t — this is
	// what makes the Algorithm 1 aging loop terminate.
	f := func(bc, dc, st, sti bool, tier uint8) bool {
		t1 := int(tier) % 6
		c := conds{bankConflict: bc, dataContention: dc, shortTurn: st}
		if passesFilter(sti, t1, c) && !passesFilter(sti, t1+1, c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySelectAlwaysGrantsSomething(t *testing.T) {
	// With at least one candidate, Select must grant (the channel never
	// idles in the presence of work) — priority candidates are never
	// excluded, and aging reaches the always-pass tier.
	type spec struct {
		Bank, Row uint8
		Write     bool
		Pri       bool
	}
	f := func(specs []spec, pct uint8, sti bool) bool {
		if len(specs) == 0 {
			return true
		}
		if len(specs) > noc.NumPorts {
			specs = specs[:noc.NumPorts]
		}
		cfg := Config{PCT: int(pct)%3 + 1, Banks: 8}
		if sti {
			cfg.STI = STIParams{Enabled: true, WriteIdle: 23, ReadIdle: 11}
		}
		g := MustNew(cfg)
		pool := make([]*noc.Packet, len(specs))
		for i, s := range specs {
			kind := noc.Read
			if s.Write {
				kind = noc.Write
			}
			pool[i] = pkt(int64(i+1), int(s.Bank)%8, int(s.Row), kind, s.Pri)
			g.OnPacketArrival(pool[i], 0)
		}
		// Drain fully: every arbitration must grant.
		remaining := pool
		for now := int64(1); len(remaining) > 0; now++ {
			cands := make([]noc.Candidate, len(remaining))
			for i, p := range remaining {
				cands[i] = noc.Candidate{Pkt: p, Port: i}
			}
			w := g.Select(cands, now)
			if w < 0 {
				return false
			}
			g.OnScheduled(remaining[w], now)
			remaining = append(remaining[:w], remaining[w+1:]...)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityLatencyDecreasesWithPCT(t *testing.T) {
	// The paper's knob: a larger PCT serves a late-arriving priority
	// packet sooner. Eight best-effort packets arrive first and age; the
	// priority packet arrives one cycle later holding PCT tokens.
	slot := func(pct int) int {
		g := MustNew(Config{PCT: pct, Banks: 4})
		var pool []*noc.Packet
		for i := int64(0); i < 8; i++ {
			pool = append(pool, pkt(i+1, int(i)%4, int(10+i), noc.Read, false))
			g.OnPacketArrival(pool[i], 0)
		}
		pri := pkt(99, 2, 77, noc.Read, true)
		pool = append(pool, pri)
		g.OnPacketArrival(pri, 1)
		remaining := pool
		for now := int64(2); ; now++ {
			cands := make([]noc.Candidate, len(remaining))
			for i, p := range remaining {
				cands[i] = noc.Candidate{Pkt: p, Port: i % noc.NumPorts}
			}
			w := g.Select(cands, now)
			if w < 0 {
				t.Fatal("Select returned -1")
			}
			if remaining[w] == pri {
				return len(pool) - len(remaining)
			}
			g.OnScheduled(remaining[w], now)
			remaining = append(remaining[:w], remaining[w+1:]...)
		}
	}
	lo, hi := slot(5), slot(1)
	if lo >= hi {
		t.Fatalf("PCT=5 slot (%d) should beat PCT=1 slot (%d)", lo, hi)
	}
	if lo != 0 {
		t.Fatalf("PCT=5 (priority-first) should grant the priority packet immediately, got slot %d", lo)
	}
}

// TestNewSlabCarvesBankStateExactly: a slab's controllers share one
// backing slice of per-bank state, each piece exactly Banks long.
func TestNewSlabCarvesBankStateExactly(t *testing.T) {
	gs, err := NewSlab(Config{Banks: 8, PCT: 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		if b := gs[i].bankIdleAt; len(b) != 8 || cap(b) != 8 {
			t.Errorf("controller %d: bankIdleAt len %d cap %d, want 8 and 8", i, len(b), cap(b))
		}
	}
	if _, err := NewSlab(Config{Banks: 0}, 2); err == nil {
		t.Error("NewSlab accepted an invalid configuration")
	}
}
