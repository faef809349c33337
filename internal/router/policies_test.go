package router

import (
	"slices"
	"testing"

	"aanoc/internal/sim"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func cand(port int, pri bool) noc.Candidate {
	return noc.Candidate{
		Port: port,
		Pkt: &noc.Packet{
			ID: int64(port + 1), Priority: pri, Kind: noc.Read,
			Addr: dram.Address{Bank: port % 4}, Beats: 8, Flits: 4,
		},
	}
}

func TestRoundRobinRotates(t *testing.T) {
	rr := &RoundRobin{}
	cands := []noc.Candidate{cand(0, false), cand(2, false), cand(4, false)}
	var grants []int
	for i := 0; i < 6; i++ {
		w := rr.Select(cands, int64(i))
		if w < 0 {
			t.Fatal("round robin must grant")
		}
		grants = append(grants, cands[w].Port)
		rr.OnScheduled(cands[w].Pkt, int64(i))
	}
	want := []int{0, 2, 4, 0, 2, 4}
	for i := range want {
		if grants[i] != want[i] {
			t.Fatalf("grants = %v, want %v", grants, want)
		}
	}
}

func TestRoundRobinEmpty(t *testing.T) {
	rr := &RoundRobin{}
	if rr.Select(nil, 0) != -1 {
		t.Fatal("empty candidate set must return -1")
	}
}

func TestRoundRobinSkipsAbsentPorts(t *testing.T) {
	rr := &RoundRobin{}
	cands := []noc.Candidate{cand(3, false)}
	if w := rr.Select(cands, 0); w != 0 {
		t.Fatalf("Select = %d, want 0", w)
	}
	rr.OnScheduled(cands[0].Pkt, 0)
	// The pointer moved one past the granted port 3, so port 4 leads.
	cands = []noc.Candidate{cand(2, false), cand(4, false)}
	if w := rr.Select(cands, 1); w != 1 {
		t.Fatalf("Select after granting port 3 = %d, want 1 (port 4)", w)
	}
}

func TestPriorityFirstPrefersPriority(t *testing.T) {
	pf := &PriorityFirst{Inner: &RoundRobin{}}
	cands := []noc.Candidate{cand(0, false), cand(1, true), cand(2, false)}
	w := pf.Select(cands, 0)
	if w < 0 || cands[w].Port != 1 {
		t.Fatalf("Select = %d (%v), want the priority candidate on port 1", w, cands)
	}
	pf.OnScheduled(cands[w].Pkt, 0)
}

func TestPriorityFirstFallsBackToRR(t *testing.T) {
	pf := &PriorityFirst{Inner: &RoundRobin{}}
	cands := []noc.Candidate{cand(1, false), cand(3, false)}
	w := pf.Select(cands, 0)
	if w != 0 {
		t.Fatalf("Select = %d, want 0 (RR from port 0)", w)
	}
}

func TestPriorityFirstTieBreaksWithinPriorityClass(t *testing.T) {
	pf := &PriorityFirst{Inner: &RoundRobin{}}
	cands := []noc.Candidate{cand(2, true), cand(4, true), cand(0, false)}
	w := pf.Select(cands, 0)
	if !cands[w].Pkt.Priority {
		t.Fatal("winner must be a priority packet")
	}
	if cands[w].Port != 2 {
		t.Fatalf("RR within priority class should pick port 2, got %d", cands[w].Port)
	}
}

// refPriorityFirst is PriorityFirst as it was before Select partitioned
// its candidates in place: the priority candidates are copied into
// scratch with their indices, and the inner policy's pick is mapped back.
// It is the oracle the in-place version must agree with.
type refPriorityFirst struct {
	Inner noc.Allocator
	pri   []noc.Candidate
	idx   []int
}

func (p *refPriorityFirst) Select(cands []noc.Candidate, now int64) int {
	if cap(p.pri) < len(cands) {
		n := max(len(cands), noc.NumPorts)
		p.pri = make([]noc.Candidate, n)
		p.idx = make([]int, n)
	}
	pri, idx := p.pri[:len(cands)], p.idx[:len(cands)]
	n := 0
	for i, c := range cands {
		if c.Pkt.Priority {
			pri[n] = c
			idx[n] = i
			n++
		}
	}
	if n == 0 {
		return p.Inner.Select(cands, now)
	}
	w := p.Inner.Select(pri[:n], now)
	if w < 0 {
		return -1
	}
	return idx[w]
}

func (p *refPriorityFirst) OnScheduled(pkt *noc.Packet, now int64) { p.Inner.OnScheduled(pkt, now) }

// TestPriorityFirstMatchesScratchReference drives the in-place Select
// and the scratch-based reference through the same random grant
// sequence — 1 to 5 candidates on distinct ports in any order, with none,
// some or all of them priority — and demands the same packet every time.
// The partition must also be stable: priority candidates first, each
// class in the order it was offered.
func TestPriorityFirstMatchesScratchReference(t *testing.T) {
	rng := sim.NewRNG(7)
	pf := &PriorityFirst{Inner: &RoundRobin{}}
	ref := &refPriorityFirst{Inner: &RoundRobin{}}
	var pkts [noc.NumPorts]noc.Packet
	mix := [3]int{}
	for now := int64(0); now < 20_000; now++ {
		n := 1 + rng.Intn(noc.NumPorts)
		ports := []int{0, 1, 2, 3, 4}
		for i := len(ports) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ports[i], ports[j] = ports[j], ports[i]
		}
		ports = ports[:n]
		mode := rng.Intn(3) // 0: no priority, 1: some, 2: all
		mix[mode]++
		cands := make([]noc.Candidate, n)
		for i, port := range ports {
			pkts[port] = noc.Packet{ID: now*noc.NumPorts + int64(port), Priority: mode == 2 || mode == 1 && rng.Intn(2) == 0}
			cands[i] = noc.Candidate{Pkt: &pkts[port], Port: port}
		}
		offered := slices.Clone(cands)
		rw := ref.Select(offered, now)
		w := pf.Select(cands, now)
		if (w < 0) != (rw < 0) || w >= 0 && cands[w].Pkt != offered[rw].Pkt {
			t.Fatalf("cycle %d, offered %v: in-place picked %d, reference %d", now, offered, w, rw)
		}
		want := slices.Clone(offered)
		slices.SortStableFunc(want, func(a, b noc.Candidate) int {
			switch {
			case a.Pkt.Priority == b.Pkt.Priority:
				return 0
			case a.Pkt.Priority:
				return -1
			}
			return 1
		})
		if !slices.Equal(cands, want) {
			t.Fatalf("cycle %d: partitioned %v, want the stable partition %v", now, cands, want)
		}
		if w >= 0 {
			pf.OnScheduled(cands[w].Pkt, now)
			ref.OnScheduled(offered[rw].Pkt, now)
		}
	}
	if mix[0] == 0 || mix[1] == 0 || mix[2] == 0 {
		t.Fatalf("candidate mixes not all exercised: %v", mix)
	}
}
