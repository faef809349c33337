package noc

import (
	"testing"
	"testing/quick"

	"aanoc/internal/dram"
)

func TestXYRoute(t *testing.T) {
	cases := []struct {
		cur, dst Coord
		want     int
	}{
		{Coord{1, 1}, Coord{2, 1}, PortEast},
		{Coord{1, 1}, Coord{0, 1}, PortWest},
		{Coord{1, 1}, Coord{1, 2}, PortSouth},
		{Coord{1, 1}, Coord{1, 0}, PortNorth},
		{Coord{1, 1}, Coord{1, 1}, PortLocal},
		// X is resolved before Y.
		{Coord{0, 0}, Coord{2, 2}, PortEast},
		{Coord{2, 0}, Coord{0, 2}, PortWest},
	}
	for _, c := range cases {
		if got := XYRoute(c.cur, c.dst); got != c.want {
			t.Errorf("XYRoute(%v,%v) = %s, want %s", c.cur, c.dst, PortName(got), PortName(c.want))
		}
	}
}

func TestHopDistance(t *testing.T) {
	if d := HopDistance(Coord{0, 0}, Coord{2, 2}); d != 4 {
		t.Errorf("HopDistance = %d, want 4", d)
	}
	if d := HopDistance(Coord{3, 1}, Coord{1, 0}); d != 3 {
		t.Errorf("HopDistance = %d, want 3", d)
	}
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(0, 3, 8); err == nil {
		t.Error("want error for zero width")
	}
	if _, err := NewMesh(3, 3, 0); err == nil {
		t.Error("want error for zero buffer")
	}
	m, err := NewMesh(3, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Routers) != 9 {
		t.Fatalf("router count = %d, want 9", len(m.Routers))
	}
	// Corner router has exactly two connected inter-router outputs.
	r := m.RouterAt(Coord{0, 0})
	connected := 0
	for p := PortNorth; p <= PortWest; p++ {
		if r.Out[p].link != nil {
			connected++
		}
	}
	if connected != 2 {
		t.Errorf("corner connected ports = %d, want 2", connected)
	}
}

// run drives a mesh with one injector and one sink for up to max cycles,
// popping delivered packets.
func run(t *testing.T, m *Mesh, inj *Injector, sink *Sink, max int64) []*Packet {
	t.Helper()
	var got []*Packet
	for now := int64(0); now < max; now++ {
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
		for {
			p := sink.Pop(now)
			if p == nil {
				break
			}
			got = append(got, p)
		}
	}
	return got
}

func mkPacket(id int64, src, dst Coord, flits int) *Packet {
	return &Packet{
		ID: id, ParentID: id, Src: src, Dst: dst,
		Kind: Write, Class: ClassMedia, Flits: flits, Beats: flits * 2, Splits: 1,
		Addr: dram.Address{Bank: int(id) % 4, Row: int(id)},
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	m, err := NewMesh(3, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := Coord{2, 2}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 16, 4)
	p := mkPacket(1, src, dst, 4)
	inj.Enqueue(p)
	got := run(t, m, inj, sink, 100)
	if len(got) != 1 || got[0] != p {
		t.Fatalf("delivered %d packets, want the 1 injected", len(got))
	}
	if !m.Quiescent() {
		t.Error("mesh not quiescent after drain")
	}
}

func TestDeliveryLatencyLowerBound(t *testing.T) {
	// A packet of F flits over H hops through an idle mesh needs at least
	// H+F cycles (pipelined wormhole).
	m, _ := NewMesh(3, 3, 8)
	src, dst := Coord{2, 2}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 64, 4)
	p := mkPacket(1, src, dst, 8)
	inj.Enqueue(p)
	var deliveredAt int64 = -1
	for now := int64(0); now < 200 && deliveredAt < 0; now++ {
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
		if sink.Pop(now) != nil {
			deliveredAt = now
		}
	}
	if deliveredAt < 0 {
		t.Fatal("packet not delivered")
	}
	minLatency := int64(HopDistance(src, dst) + p.Flits)
	if deliveredAt < minLatency {
		t.Errorf("delivered at %d, impossible before %d", deliveredAt, minLatency)
	}
	if deliveredAt > minLatency+6 {
		t.Errorf("delivered at %d, idle mesh should be close to %d", deliveredAt, minLatency)
	}
}

func TestManyPacketsAllDelivered(t *testing.T) {
	m, _ := NewMesh(3, 3, 4)
	dst := Coord{0, 0}
	sink := m.AttachSink(dst, 8, 4)
	var injs []*Injector
	id := int64(0)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			c := Coord{x, y}
			if c == dst {
				continue
			}
			inj := m.AttachInjector(c)
			for k := 0; k < 5; k++ {
				id++
				inj.Enqueue(mkPacket(id, c, dst, 1+int(id)%6))
			}
			injs = append(injs, inj)
		}
	}
	seen := map[int64]bool{}
	for now := int64(0); now < 3000; now++ {
		m.Cycle(now)
		for _, inj := range injs {
			inj.Step(now)
		}
		sink.Step(now)
		for {
			p := sink.Pop(now)
			if p == nil {
				break
			}
			if seen[p.ID] {
				t.Fatalf("packet %d delivered twice", p.ID)
			}
			seen[p.ID] = true
		}
	}
	if len(seen) != int(id) {
		t.Fatalf("delivered %d of %d packets", len(seen), id)
	}
	if !m.Quiescent() {
		t.Error("mesh not quiescent after drain")
	}
}

func TestBackpressureStallsWithoutLoss(t *testing.T) {
	// A sink that never pops forces the wormhole to stall; nothing may be
	// lost or duplicated, and after the sink starts draining everything
	// arrives.
	m, _ := NewMesh(2, 2, 2)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 2, 1)
	for i := int64(1); i <= 4; i++ {
		inj.Enqueue(mkPacket(i, src, dst, 4))
	}
	// Phase 1: consumer never pops; the ready list (1 packet) and the
	// flit buffer (2 flits) both fill and backpressure freezes the mesh.
	for now := int64(0); now < 100; now++ {
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
	}
	if sink.Ready() != 1 {
		t.Fatalf("sink ready = %d, want 1", sink.Ready())
	}
	if sink.port.occupied() != 2 {
		t.Fatalf("sink occupancy = %d, want full (2)", sink.port.occupied())
	}
	// Phase 2: drain.
	var got []*Packet
	for now := int64(100); now < 400; now++ {
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
		if p := sink.Pop(now); p != nil {
			got = append(got, p)
		}
	}
	if len(got) != 4 {
		t.Fatalf("delivered %d packets, want 4", len(got))
	}
	for i, p := range got {
		if p.ID != int64(i+1) {
			t.Errorf("packet %d out of order (ID %d)", i, p.ID)
		}
	}
}

func TestInOrderPerSource(t *testing.T) {
	m, _ := NewMesh(4, 4, 4)
	dst := Coord{0, 0}
	sink := m.AttachSink(dst, 32, 4)
	src := Coord{3, 3}
	inj := m.AttachInjector(src)
	for i := int64(1); i <= 20; i++ {
		inj.Enqueue(mkPacket(i, src, dst, 1+int(i)%4))
	}
	got := run(t, m, inj, sink, 1000)
	if len(got) != 20 {
		t.Fatalf("delivered %d, want 20", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			t.Fatal("XY routing with FIFO buffers must preserve per-source order")
		}
	}
}

// TestPropertyAllPacketsDelivered fuzzes packet sets from random sources
// with random lengths and checks exactly-once delivery.
func TestPropertyAllPacketsDelivered(t *testing.T) {
	f := func(lens []uint8) bool {
		if len(lens) > 40 {
			lens = lens[:40]
		}
		m, err := NewMesh(4, 4, 4)
		if err != nil {
			return false
		}
		dst := Coord{0, 0}
		sink := m.AttachSink(dst, 16, 4)
		injs := map[Coord]*Injector{}
		want := 0
		for i, l := range lens {
			src := Coord{i % 4, (i / 4) % 4}
			if src == dst {
				continue
			}
			inj := injs[src]
			if inj == nil {
				inj = m.AttachInjector(src)
				injs[src] = inj
			}
			inj.Enqueue(mkPacket(int64(i+1), src, dst, 1+int(l)%16))
			want++
		}
		seen := map[int64]bool{}
		for now := int64(0); now < 20000 && len(seen) < want; now++ {
			m.Cycle(now)
			for _, inj := range injs {
				inj.Step(now)
			}
			sink.Step(now)
			for {
				p := sink.Pop(now)
				if p == nil {
					break
				}
				if seen[p.ID] {
					return false
				}
				seen[p.ID] = true
			}
		}
		return len(seen) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketConditions(t *testing.T) {
	a := &Packet{Kind: Read, Addr: dram.Address{Bank: 1, Row: 10}}
	b := &Packet{Kind: Write, Addr: dram.Address{Bank: 1, Row: 11}}
	c := &Packet{Kind: Read, Addr: dram.Address{Bank: 1, Row: 10}}
	d := &Packet{Kind: Read, Addr: dram.Address{Bank: 2, Row: 10}}
	if !BankConflict(a, b) || BankConflict(a, c) || BankConflict(a, d) {
		t.Error("BankConflict misclassifies")
	}
	if !DataContention(a, b) || DataContention(a, c) {
		t.Error("DataContention misclassifies")
	}
	if !RowHit(a, c) || RowHit(a, b) || RowHit(a, d) {
		t.Error("RowHit misclassifies")
	}
	if !BankInterleave(a, d) || BankInterleave(a, b) {
		t.Error("BankInterleave misclassifies")
	}
}

func TestFlitsForBeats(t *testing.T) {
	cases := []struct{ beats, want int }{{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {9, 5}, {128, 64}}
	for _, c := range cases {
		if got := FlitsForBeats(c.beats); got != c.want {
			t.Errorf("FlitsForBeats(%d) = %d, want %d", c.beats, got, c.want)
		}
	}
}

// holdUntil is a time-dependent flow-control policy: it leaves the
// channel idle, candidates or not, until cycle at.
type holdUntil struct {
	at      int64
	refused int
}

func (h *holdUntil) OnPacketArrival(*Packet, int64) {}
func (h *holdUntil) OnScheduled(*Packet, int64)     {}
func (h *holdUntil) Select(c []Candidate, now int64) int {
	if now < h.at {
		h.refused++
		return -1
	}
	return 0
}

// TestDecliningAllocatorKeepsRouterAwake: a policy that refuses to pick
// among waiting candidates sees the clock and may answer otherwise next
// cycle, so the router must keep asking with nothing delivered to it
// meanwhile. The held packet leaves exactly when the policy relents.
func TestDecliningAllocatorKeepsRouterAwake(t *testing.T) {
	deliveredAt := func(hold int64) (int64, *holdUntil) {
		m, _ := NewMesh(2, 1, 8)
		src, dst := Coord{1, 0}, Coord{0, 0}
		h := &holdUntil{at: hold}
		m.RouterAt(src).Out[PortWest].alloc = h
		inj := m.AttachInjector(src)
		sink := m.AttachSink(dst, 16, 4)
		inj.Enqueue(mkPacket(1, src, dst, 1))
		for now := int64(0); now < 200; now++ {
			m.Cycle(now)
			inj.Step(now)
			sink.Step(now)
			if sink.Pop(now) != nil {
				return now, h
			}
		}
		t.Fatalf("packet held until cycle %d never delivered", hold)
		return 0, nil
	}
	free, _ := deliveredAt(0)
	held, h := deliveredAt(50)
	// The head reaches the router's buffer at cycle 1, so an unheld grant
	// happens then; a grant at cycle 50 instead delays delivery by 49.
	if held != free+49 {
		t.Errorf("packet held until cycle 50 delivered at %d, unheld at %d: want %d", held, free, free+49)
	}
	if h.refused != 49 {
		t.Errorf("policy was asked and refused %d times, want once a cycle over cycles 1-49", h.refused)
	}
}

// TestEveryDeliveringBufferIsFed pins the premise the buffer and sink hot
// paths rest on: every InputBuffer a link delivers into has that link as
// its feed, so a forwarded or drained flit's credit and its packet's
// progress record never meet a nil feed. Conversely a buffer no link
// delivers into (a border port, a local port without an injector) has
// none, and no buffer is fed by two links.
func TestEveryDeliveringBufferIsFed(t *testing.T) {
	for _, side := range []int{3, 4, 6} {
		for _, vcs := range []int{1, 2} {
			m, err := NewMeshVC(side, side, 4, vcs)
			if err != nil {
				t.Fatal(err)
			}
			var injAt []Coord // every other column: some local ports stay unfed
			for y := 0; y < side; y++ {
				for x := 0; x < side; x += 2 {
					injAt = append(injAt, Coord{x, y})
				}
			}
			m.AttachInjectors(injAt...)
			sinks := m.AttachSinks(8, 4, Coord{0, 0}, Coord{side - 1, side - 1})
			if want := 4*side*(side-1) + len(injAt) + len(sinks); len(m.links) != want {
				t.Fatalf("%dx%d/%d VCs: %d links, want %d", side, side, vcs, len(m.links), want)
			}
			fedBy := map[*InputBuffer]*Link{}
			for i := range m.links {
				l := &m.links[i]
				for v := range l.dst.bufs {
					b := &l.dst.bufs[v]
					if _, dup := fedBy[b]; dup {
						t.Fatalf("%dx%d/%d VCs: two links deliver into one VC %d buffer", side, side, vcs, v)
					}
					fedBy[b] = l
					if b.feed != l {
						t.Errorf("%dx%d/%d VCs: link %d delivers into a VC %d buffer fed by %p", side, side, vcs, i, v, b.feed)
					}
				}
			}
			for _, r := range m.Routers {
				for p := range r.In {
					for v := range r.In[p].bufs {
						if b := &r.In[p].bufs[v]; fedBy[b] == nil && b.feed != nil {
							t.Errorf("%dx%d/%d VCs: router %v port %s VC %d has a feed but no link delivers into it",
								side, side, vcs, r.Pos, PortName(p), v)
						}
					}
				}
			}
			for i := range sinks {
				for v := range sinks[i].port.bufs {
					if fedBy[&sinks[i].port.bufs[v]] == nil {
						t.Errorf("%dx%d/%d VCs: sink %d VC %d is fed by no link", side, side, vcs, i, v)
					}
				}
			}
		}
	}
}
