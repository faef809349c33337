package noc

import "testing"

// slowQueueFlits recomputes the injection backlog from first principles
// (total enqueued flits minus launched head flits), the definition the
// incremental counter must track exactly.
func slowQueueFlits(inj *Injector) int {
	n := 0
	for vc := range inj.queues {
		for p := inj.queues[vc].head; p != nil; p = p.next {
			n += p.Flits
		}
		n -= inj.sent[vc]
	}
	return n
}

// TestInjectorFlitAccounting drives an injector against a hand-computed
// schedule: the injector launches exactly one flit per cycle while it has
// credits, so after enqueueing packets of known lengths the backlog and
// its high-water mark follow directly.
func TestInjectorFlitAccounting(t *testing.T) {
	m, err := NewMesh(2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := Coord{0, 0}, Coord{1, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 8, 16)

	if inj.QueueFlits() != 0 || inj.QueueFlitsHWM() != 0 {
		t.Fatalf("fresh injector: flits=%d hwm=%d", inj.QueueFlits(), inj.QueueFlitsHWM())
	}
	// Enqueue 3+5+4 = 12 flits before any cycle runs: backlog and HWM
	// must both read 12.
	for i, flits := range []int{3, 5, 4} {
		inj.Enqueue(mkVCPacket(int64(i+1), src, dst, flits, false))
	}
	if got := inj.QueueFlits(); got != 12 {
		t.Fatalf("backlog after enqueue = %d, want 12", got)
	}
	if got := inj.QueueFlitsHWM(); got != 12 {
		t.Fatalf("HWM after enqueue = %d, want 12", got)
	}

	// Each cycle the injector launches exactly one flit (credits permit:
	// the sink drains continuously), so after k cycles the backlog is
	// 12-k; the HWM stays at the initial peak.
	now := int64(0)
	for k := 1; k <= 12; k++ {
		m.Cycle(now)
		sink.Step(now)
		for sink.Pop(now) != nil {
		}
		inj.Step(now)
		now++
		if got, want := inj.QueueFlits(), 12-k; got != want {
			t.Fatalf("cycle %d: backlog = %d, want %d", k, got, want)
		}
		if got := slowQueueFlits(inj); got != inj.QueueFlits() {
			t.Fatalf("cycle %d: incremental %d != recomputed %d", k, inj.QueueFlits(), got)
		}
	}
	if inj.QueueFlitsHWM() != 12 {
		t.Errorf("HWM after drain = %d, want 12", inj.QueueFlitsHWM())
	}
	// A late enqueue below the old peak must not move the HWM.
	inj.Enqueue(mkVCPacket(9, src, dst, 2, false))
	if inj.QueueFlits() != 2 || inj.QueueFlitsHWM() != 12 {
		t.Errorf("after late enqueue: flits=%d hwm=%d, want 2/12", inj.QueueFlits(), inj.QueueFlitsHWM())
	}
}

// TestSinkReadyHWM checks the ready-list high-water mark: packets pile up
// while the consumer does not pop, and the mark survives the drain.
func TestSinkReadyHWM(t *testing.T) {
	m, err := NewMesh(2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := Coord{0, 0}, Coord{1, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 8, 16)
	for i := 0; i < 4; i++ {
		inj.Enqueue(mkVCPacket(int64(i+1), src, dst, 1, false))
	}
	var now int64
	for ; now < 32; now++ { // no pops: packets accumulate in ready
		m.Cycle(now)
		sink.Step(now)
		inj.Step(now)
	}
	if sink.Ready() != 4 || sink.ReadyHWM() != 4 {
		t.Fatalf("ready=%d hwm=%d, want 4/4", sink.Ready(), sink.ReadyHWM())
	}
	for sink.Pop(now) != nil {
	}
	if sink.Ready() != 0 || sink.ReadyHWM() != 4 {
		t.Errorf("after drain: ready=%d hwm=%d, want 0/4", sink.Ready(), sink.ReadyHWM())
	}
}

// TestOutputPortGrants: each packet crossing a router costs exactly one
// allocator grant on the output port it leaves through.
func TestOutputPortGrants(t *testing.T) {
	m, err := NewMesh(2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := Coord{0, 0}, Coord{1, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 8, 16)
	const packets = 5
	for i := 0; i < packets; i++ {
		inj.Enqueue(mkVCPacket(int64(i+1), src, dst, 3, false))
	}
	for now := int64(0); now < 64; now++ {
		m.Cycle(now)
		sink.Step(now)
		for sink.Pop(now) != nil {
		}
		inj.Step(now)
	}
	east := m.RouterAt(src).Out[PortEast]
	if east.Grants != packets {
		t.Errorf("east grants = %d, want %d", east.Grants, packets)
	}
	if east.BusyCycles != packets*3 {
		t.Errorf("east busy cycles = %d, want %d", east.BusyCycles, packets*3)
	}
	if !east.Connected() {
		t.Error("east port should report connected")
	}
	if north := m.RouterAt(src).Out[PortNorth]; north.Connected() {
		t.Error("north edge port should report unconnected")
	}
}

// TestAttachedNIsAreCarvedExactly: the injectors and sinks of one attach
// call share a slab and backing slices per kind; every per-VC piece (and
// each sink's ready list, at its bound) ends at its own length, so an
// append reallocates instead of overwriting the next NI's state.
func TestAttachedNIsAreCarvedExactly(t *testing.T) {
	m, err := NewMeshVC(3, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	at := []Coord{{0, 0}, {1, 1}, {2, 2}}
	exact := func(what string, i, n, c int) {
		if n != m.VCs() || c != n {
			t.Errorf("NI %d %s: len %d cap %d, want %d and %d", i, what, n, c, m.VCs(), m.VCs())
		}
	}
	for i, inj := range m.AttachInjectors(at...) {
		exact("credits", i, len(inj.credits), cap(inj.credits))
		exact("sent", i, len(inj.sent), cap(inj.sent))
		exact("queues", i, len(inj.queues), cap(inj.queues))
	}
	for i, s := range m.AttachSinks(8, 3, at...) {
		exact("bufs", i, len(s.port.bufs), cap(s.port.bufs))
		for vc := range s.port.bufs {
			if b := &s.port.bufs[vc]; cap(b.packets) != b.capacity {
				t.Errorf("sink %d vc %d: FIFO capacity %d, want %d", i, vc, cap(b.packets), b.capacity)
			}
		}
		if len(s.ready) != 0 || cap(s.ready) != 3 {
			t.Errorf("sink %d: ready len %d cap %d, want 0 and 3", i, len(s.ready), cap(s.ready))
		}
	}
}
