package memctrl

import (
	"math/rand/v2"
	"testing"

	"aanoc/internal/dram"
	"aanoc/internal/noc"
)

func req(id int64, bank, row, col int, kind noc.Kind, beats int, ap bool) *noc.Packet {
	return &noc.Packet{
		ID: id, ParentID: id, Kind: kind, Class: noc.ClassMedia,
		Addr:  dram.Address{Bank: bank, Row: row, Col: col},
		Beats: beats, Flits: noc.FlitsForBeats(beats), Splits: 1, APTag: ap,
	}
}

// drive feeds the packets to the controller in order and runs until all
// complete or maxCycles elapse, returning the completions in order. done
// must be the list the controller's onDone appends to: its length is the
// drain condition.
func drive(t *testing.T, ctrl Controller, pkts []*noc.Packet, done *[]Completion, maxCycles int64) {
	t.Helper()
	i := 0
	for now := int64(0); now < maxCycles; now++ {
		for i < len(pkts) && ctrl.Offer(pkts[i], now) {
			i++
		}
		ctrl.Tick(now)
		if len(*done) == len(pkts) {
			// Settle: let trailing auto-precharges fire.
			for k := int64(1); k <= 64; k++ {
				ctrl.Tick(now + k)
			}
			return
		}
	}
	t.Fatalf("controller did not drain: %d/%d offered, %d completed", i, len(pkts), len(*done))
}

func mkSimple(t *testing.T, tm dram.Timing, policy PagePolicy) (*Simple, *dram.Device, *[]Completion) {
	t.Helper()
	dev := dram.MustNewDevice(tm)
	var done []Completion
	s := NewSimple(dev, policy, 4, func(c Completion) { done = append(done, c) })
	return s, dev, &done
}

func TestSimpleSingleRead(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	s, dev, done := mkSimple(t, tm, OpenPage)
	p := req(1, 0, 5, 0, noc.Read, 8, false)
	drive(t, s, []*noc.Packet{p}, done, 1000)
	if len(*done) != 1 || (*done)[0].Pkt != p {
		t.Fatalf("completions = %v", *done)
	}
	// ACT at ~0, CAS at tRCD, data ends CL + burst later.
	min := tm.TRCD + tm.CL + dram.BurstCycles(8)
	if at := (*done)[0].At; at < min || at > min+8 {
		t.Errorf("completion at %d, want about %d", at, min)
	}
	st := dev.Stats()
	if st.Activates != 1 || st.Reads != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSimpleMultiCASRequest(t *testing.T) {
	// 18 useful beats on a BL8 device need three column commands moving
	// 24 beats; the waste is visible as BurstsBL - UsefulBeats.
	tm := dram.MustSpeed(dram.DDR2, 333)
	s, dev, done := mkSimple(t, tm, OpenPage)
	p := req(1, 1, 2, 0, noc.Write, 18, false)
	drive(t, s, []*noc.Packet{p}, done, 1000)
	st := dev.Stats()
	if st.Writes != 3 {
		t.Fatalf("writes = %d, want 3", st.Writes)
	}
	if st.BurstsBL != 24 || st.UsefulBeats != 18 {
		t.Fatalf("moved %d useful %d, want 24/18", st.BurstsBL, st.UsefulBeats)
	}
}

func TestSimpleRowHitStreamNeedsOneActivate(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR1, 200)
	s, dev, done := mkSimple(t, tm, OpenPage)
	var pkts []*noc.Packet
	for i := int64(0); i < 6; i++ {
		pkts = append(pkts, req(i+1, 2, 7, int(i)*8, noc.Read, 8, false))
	}
	drive(t, s, pkts, done, 2000)
	st := dev.Stats()
	if st.Activates != 1 {
		t.Errorf("activates = %d, want 1 (all row hits)", st.Activates)
	}
	if st.Precharges != 0 {
		t.Errorf("precharges = %d, want 0", st.Precharges)
	}
	if len(*done) != 6 {
		t.Errorf("completions = %d, want 6", len(*done))
	}
}

func TestSimpleBankConflictForcesPrecharge(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	s, dev, done := mkSimple(t, tm, OpenPage)
	pkts := []*noc.Packet{
		req(1, 0, 1, 0, noc.Read, 8, false),
		req(2, 0, 2, 0, noc.Read, 8, false), // same bank, new row
	}
	drive(t, s, pkts, done, 2000)
	st := dev.Stats()
	if st.Precharges != 1 || st.Activates != 2 {
		t.Errorf("stats = %+v, want 1 PRE / 2 ACT", st)
	}
}

func TestSimplePartialOpenPageUsesAP(t *testing.T) {
	// Tagged packets close their bank via AP: the following conflicting
	// request needs no explicit precharge.
	tm := dram.MustSpeed(dram.DDR2, 333).WithDeviceBL(4)
	s, dev, done := mkSimple(t, tm, PartialOpenPage)
	pkts := []*noc.Packet{
		req(1, 0, 1, 0, noc.Write, 4, true), // tagged: AP
		req(2, 0, 2, 0, noc.Write, 4, true), // same bank, new row
	}
	drive(t, s, pkts, done, 2000)
	st := dev.Stats()
	if st.Precharges != 0 {
		t.Errorf("explicit precharges = %d, want 0 (AP)", st.Precharges)
	}
	if st.AutoPre != 2 {
		t.Errorf("auto precharges = %d, want 2", st.AutoPre)
	}
}

func TestSimpleUntaggedSplitKeepsRowOpen(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333).WithDeviceBL(4)
	s, dev, done := mkSimple(t, tm, PartialOpenPage)
	// Three splits of one logical request: only the last is tagged.
	a := req(1, 0, 1, 0, noc.Write, 4, false)
	b := req(2, 0, 1, 4, noc.Write, 4, false)
	c := req(3, 0, 1, 8, noc.Write, 4, true)
	for _, p := range []*noc.Packet{a, b, c} {
		p.ParentID = 1
		p.Splits = 3
	}
	drive(t, s, []*noc.Packet{a, b, c}, done, 2000)
	st := dev.Stats()
	if st.Activates != 1 {
		t.Errorf("activates = %d, want 1 (splits are row hits)", st.Activates)
	}
	if st.AutoPre != 1 {
		t.Errorf("auto precharges = %d, want 1 (only the tag)", st.AutoPre)
	}
}

func TestSimpleInOrderCompletion(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	s, _, done := mkSimple(t, tm, OpenPage)
	var pkts []*noc.Packet
	for i := int64(0); i < 10; i++ {
		pkts = append(pkts, req(i+1, int(i)%8, int(i/2), 0, noc.Read, 8, false))
	}
	drive(t, s, pkts, done, 5000)
	for i := 1; i < len(*done); i++ {
		if (*done)[i].Pkt.ID < (*done)[i-1].Pkt.ID {
			t.Fatal("Simple must complete requests in order")
		}
		if (*done)[i].At < (*done)[i-1].At {
			t.Fatal("completion times must be monotone")
		}
	}
}

func TestSimpleBackpressure(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	s := NewSimple(dev, OpenPage, 2, func(Completion) {})
	if !s.Offer(req(1, 0, 1, 0, noc.Read, 8, false), 0) {
		t.Fatal("first offer should be accepted")
	}
	if !s.Offer(req(2, 1, 1, 0, noc.Read, 8, false), 0) {
		t.Fatal("second offer should be accepted")
	}
	if s.Offer(req(3, 2, 1, 0, noc.Read, 8, false), 0) {
		t.Fatal("third offer should be refused (depth 2)")
	}
}

func TestSimpleRefreshHappens(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR1, 133) // tREFI ~1036
	s, dev, done := mkSimple(t, tm, OpenPage)
	var pkts []*noc.Packet
	for i := int64(0); i < 40; i++ {
		pkts = append(pkts, req(i+1, int(i)%4, 3, 0, noc.Read, 8, false))
	}
	// Space requests out over > tREFI cycles.
	i := 0
	for now := int64(0); now < 4000; now++ {
		if now%100 == 0 && i < len(pkts) {
			if s.Offer(pkts[i], now) {
				i++
			}
		}
		s.Tick(now)
	}
	if dev.Stats().Refreshes < 2 {
		t.Errorf("refreshes = %d, want >= 2 over 4000 cycles", dev.Stats().Refreshes)
	}
	if len(*done) == 0 {
		t.Error("no completions amid refreshes")
	}
}

func TestFig5APAvoidsCommandCongestion(t *testing.T) {
	// The paper's Fig. 5: in BL4 mode, explicit precharges congest the
	// command bus; AP removes the PRE commands entirely. Alternating-bank
	// single-burst writes with new rows each time finish no later — and
	// with strictly fewer explicit precharges — under the closed-page
	// (AP) policy than under open-page.
	tm := dram.MustSpeed(dram.DDR2, 333).WithDeviceBL(4)
	mk := func(policy PagePolicy) (int64, dram.Stats) {
		dev := dram.MustNewDevice(tm)
		var last int64
		var done []Completion
		s := NewSimple(dev, policy, 4, func(c Completion) {
			done = append(done, c)
			if c.At > last {
				last = c.At
			}
		})
		var pkts []*noc.Packet
		for i := int64(0); i < 32; i++ {
			pkts = append(pkts, req(i+1, int(i)%4, int(i), 0, noc.Write, 4, true))
		}
		drive(t, s, pkts, &done, 20000)
		return last, dev.Stats()
	}
	apTime, apStats := mk(ClosedPage)
	opTime, opStats := mk(OpenPage)
	if apStats.Precharges != 0 {
		t.Errorf("AP run issued %d explicit precharges", apStats.Precharges)
	}
	if opStats.Precharges == 0 {
		t.Error("open-page run should need explicit precharges")
	}
	if apTime > opTime {
		t.Errorf("AP run slower (%d) than open-page (%d)", apTime, opTime)
	}
}

func TestMemMaxReordersForRowHit(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	m := NewMemMax(dev, MemMaxConfig{PipelineDepth: 2}, func(c Completion) { done = append(done, c) })
	// Thread assignment is class-based: use different classes to land the
	// requests on different threads.
	conflict := req(1, 0, 1, 0, noc.Read, 8, false)
	conflict.Class = noc.ClassPrefetch
	hit := req(2, 0, 2, 0, noc.Read, 8, false)
	hit.Class = noc.ClassMedia
	// Open row 2 of bank 0 first via a seed request.
	seed := req(3, 0, 2, 0, noc.Read, 8, false)
	seed.Class = noc.ClassPeripheral
	if !m.Offer(seed, 0) {
		t.Fatal("seed refused")
	}
	for now := int64(0); now < 100; now++ {
		m.Tick(now)
	}
	if !m.Offer(conflict, 100) || !m.Offer(hit, 100) {
		t.Fatal("offers refused")
	}
	for now := int64(100); now < 400; now++ {
		m.Tick(now)
	}
	if len(done) != 3 {
		t.Fatalf("completions = %d, want 3", len(done))
	}
	if done[1].Pkt.ID != 2 {
		t.Errorf("row-hit request should be served before the conflicting one, order: %v %v", done[1].Pkt.ID, done[2].Pkt.ID)
	}
}

func TestMemMaxPriorityFirst(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	cfg := MemMaxConfig{PipelineDepth: 1, PriorityFirst: true}
	m := NewMemMax(dev, cfg, func(c Completion) { done = append(done, c) })
	be := req(1, 1, 1, 0, noc.Read, 8, false)
	be.Class = noc.ClassMedia
	pri := req(2, 2, 1, 0, noc.Read, 8, false)
	pri.Class = noc.ClassDemand
	pri.Priority = true
	if !m.Offer(be, 0) || !m.Offer(pri, 0) {
		t.Fatal("offers refused")
	}
	for now := int64(0); now < 300; now++ {
		m.Tick(now)
	}
	if len(done) != 2 || done[0].Pkt.ID != 2 {
		t.Fatalf("priority packet should complete first: %+v", done)
	}
}

func TestMemMaxBackpressurePerThread(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR2, 333)
	dev := dram.MustNewDevice(tm)
	m := NewMemMax(dev, MemMaxConfig{PipelineDepth: 1}, func(Completion) {})
	m.shrink(2)
	a := req(1, 0, 1, 0, noc.Read, 8, false)
	b := req(2, 0, 2, 0, noc.Read, 8, false)
	c := req(3, 0, 3, 0, noc.Read, 8, false)
	for _, p := range []*noc.Packet{a, b, c} {
		p.Class = noc.ClassMedia
		p.SrcCore = 0
	}
	if !m.Offer(a, 0) || !m.Offer(b, 0) {
		t.Fatal("first two offers should fit")
	}
	if m.Offer(c, 0) {
		t.Fatal("third offer should be refused (queue depth 2)")
	}
	if m.backlog != 2 {
		t.Fatalf("backlog = %d, want 2", m.backlog)
	}
}

func TestMemMaxDrainsMixedTraffic(t *testing.T) {
	tm := dram.MustSpeed(dram.DDR3, 667)
	dev := dram.MustNewDevice(tm)
	var done []Completion
	m := NewMemMax(dev, DefaultMemMaxConfig(), func(c Completion) { done = append(done, c) })
	classes := []noc.Class{noc.ClassDemand, noc.ClassPrefetch, noc.ClassMedia, noc.ClassPeripheral}
	var pkts []*noc.Packet
	for i := int64(0); i < 40; i++ {
		p := req(i+1, int(i)%8, int(i%5), 0, noc.Kind(i%2), 8, false)
		p.Class = classes[i%4]
		p.SrcCore = int(i % 7)
		pkts = append(pkts, p)
	}
	drive(t, m, pkts, &done, 20000)
	if len(done) != 40 {
		t.Fatalf("completions = %d, want 40", len(done))
	}
	if dev.Utilization(int64(done[len(done)-1].At)) <= 0 {
		t.Error("utilization should be positive")
	}
}

// pickThreadTwoPass is pickThread as two scans: the least-served head,
// then, when that head is not clean, the least-served clean head among
// the others. It is the oracle for the one-pass form.
func (m *MemMax) pickThreadTwoPass() int {
	best := -1
	for th := range m.queues {
		if len(m.queues[th]) == 0 {
			continue
		}
		if m.priorityFirst && m.queues[th][0].Priority {
			return th
		}
		if best < 0 || m.served[th] < m.served[best] {
			best = th
		}
	}
	if best < 0 {
		return -1
	}
	if m.score(m.queues[best][0]) >= 4 {
		return best
	}
	alt := -1
	for th := range m.queues {
		if th == best || len(m.queues[th]) == 0 {
			continue
		}
		if m.score(m.queues[th][0]) >= 4 && (alt < 0 || m.served[th] < m.served[alt]) {
			alt = th
		}
	}
	if alt >= 0 {
		return alt
	}
	return best
}

// TestMemMaxPickThreadMatchesTwoPass compares the one-pass arbitration
// with the two-pass oracle over random thread states: served beats
// (few distinct values, so ties occur), which threads hold a head and
// what it is, the last admitted request and priority-first.
func TestMemMaxPickThreadMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewPCG(53, 1))
	m := NewMemMax(dram.MustNewDevice(dram.MustSpeed(dram.DDR2, 333)), DefaultMemMaxConfig(), func(Completion) {})
	randPkt := func() *noc.Packet {
		p := req(1, rng.IntN(3), rng.IntN(3), 0, noc.Kind(rng.IntN(2)), 8, false)
		p.Priority = rng.IntN(4) == 0
		return p
	}
	for i := 0; i < 20000; i++ {
		m.priorityFirst = rng.IntN(2) == 0
		m.hasLast = rng.IntN(8) != 0
		m.last = *randPkt()
		for th := range m.queues {
			m.served[th] = int64(rng.IntN(3))
			m.queues[th] = m.queues[th][:0]
			if rng.IntN(4) != 0 {
				m.queues[th] = append(m.queues[th], randPkt())
			}
		}
		if got, want := m.pickThread(), m.pickThreadTwoPass(); got != want {
			t.Fatalf("state %d: pickThread = %d, two-pass oracle = %d (served %v, priorityFirst %v)",
				i, got, want, m.served, m.priorityFirst)
		}
	}
}
