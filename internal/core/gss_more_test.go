package core

import (
	"testing"

	"aanoc/internal/noc"
)

func TestSTIArmsOnlyOnTaggedPackets(t *testing.T) {
	sti := STIParams{Enabled: true, WriteIdle: 20, ReadIdle: 10}
	g := MustNew(Config{PCT: 1, Banks: 8, STI: sti})
	// Untagged packet: counter must not arm.
	un := pkt(1, 2, 5, noc.Write, false)
	g.OnPacketArrival(un, 0)
	g.OnScheduled(un, 0)
	probe := pkt(2, 2, 5, noc.Write, false)
	g.OnPacketArrival(probe, 1)
	if got := g.Select([]noc.Candidate{{Pkt: probe, Port: 0}}, 2); got != 0 {
		t.Fatal("untagged scheduling must not arm the bank counter")
	}
}

func TestSTIReadVsWriteIdleTimes(t *testing.T) {
	sti := STIParams{Enabled: true, WriteIdle: 30, ReadIdle: 5}
	mk := func(kind noc.Kind) *GSS {
		g := MustNew(Config{PCT: 1, Banks: 8, STI: sti})
		p := pkt(1, 3, 5, kind, false)
		p.APTag = true
		g.OnPacketArrival(p, 0)
		g.OnScheduled(p, 0)
		return g
	}
	// Probe at a time between the read and write recovery estimates:
	// transfer (4 flits) + 5 < 12 < transfer + 30.
	same := pkt(2, 3, 5, noc.Read, false)
	other := pkt(3, 4, 5, noc.Read, false)
	probeAt := int64(12)
	gr := mk(noc.Read)
	gr.OnPacketArrival(same, 1)
	gr.OnPacketArrival(other, 1)
	if got := gr.Select([]noc.Candidate{{Pkt: same, Port: 0}, {Pkt: other, Port: 1}}, probeAt); got != 0 {
		t.Fatalf("read-idle expired: same-bank packet should win FIFO order, got %d", got)
	}
	gw := mk(noc.Write)
	// Against a write recovery the same-bank candidate is steered away.
	same2 := pkt(4, 3, 5, noc.Write, false)
	other2 := pkt(5, 4, 5, noc.Write, false)
	gw.OnPacketArrival(same2, 1)
	gw.OnPacketArrival(other2, 1)
	if got := gw.Select([]noc.Candidate{{Pkt: same2, Port: 0}, {Pkt: other2, Port: 1}}, probeAt); got != 1 {
		t.Fatalf("write-idle pending: other bank should win, got %d", got)
	}
}

func TestMaxTokensPerTree(t *testing.T) {
	if (Config{}).MaxTokens() != 5 {
		t.Error("Fig. 4(a) tree should cap at 5 tokens")
	}
	if (Config{STI: STIParams{Enabled: true}}).MaxTokens() != 6 {
		t.Error("Fig. 4(b) tree should cap at 6 tokens")
	}
}

func TestSelectAdoptsUnknownCandidates(t *testing.T) {
	// A candidate the allocator was never told about (e.g. after a
	// reconfiguration) is adopted rather than crashing or starving.
	g := MustNew(Config{PCT: 2, Banks: 4})
	stranger := pkt(1, 0, 0, noc.Read, false)
	if got := g.Select([]noc.Candidate{{Pkt: stranger, Port: 0}}, 5); got != 0 {
		t.Fatalf("unknown candidate not granted: %d", got)
	}
	if g.Tokens(stranger) == 0 {
		t.Fatal("unknown candidate not adopted into the token table")
	}
}

func TestSelectEmpty(t *testing.T) {
	g := MustNew(Config{PCT: 2, Banks: 4})
	if g.Select(nil, 0) != -1 {
		t.Fatal("empty candidate set must return -1")
	}
}

func TestScheduledCounterAdvances(t *testing.T) {
	g := MustNew(Config{PCT: 1, Banks: 4})
	p := pkt(1, 0, 0, noc.Read, false)
	g.OnPacketArrival(p, 0)
	g.OnScheduled(p, 1)
	if g.Tokens(p) != 0 {
		t.Fatal("scheduled packet should leave the token table")
	}
}

func TestDataContentionSeparation(t *testing.T) {
	// After a write, a read to a different bank with fresh tokens fails
	// T(1) (contention) while a write passes — the scheduler groups
	// directions.
	g := MustNew(Config{PCT: 1, Banks: 4})
	w := pkt(1, 0, 1, noc.Write, false)
	g.OnPacketArrival(w, 0)
	g.OnScheduled(w, 0)
	rd := pkt(2, 1, 1, noc.Read, false)
	wr := pkt(3, 2, 1, noc.Write, false)
	g.OnPacketArrival(rd, 1)
	g.OnPacketArrival(wr, 1)
	if got := g.Select([]noc.Candidate{{Pkt: rd, Port: 0}, {Pkt: wr, Port: 1}}, 2); got != 1 {
		t.Fatalf("same-direction write should win, got %d", got)
	}
}
