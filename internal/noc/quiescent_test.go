package noc

import "testing"

// TestQuiescentLifecycle walks one packet through the mesh and checks
// Quiescent, the two active sets and the OnWake contract at every stage:
// an empty mesh is quiescent with both sets empty, a mesh with a flit on
// a link or in a buffer is not, and the mesh returns to quiescence once
// the packet has drained into the sink — sink residency is the NI's
// business, not the mesh's. OnWake fires exactly once in each cycle that
// puts the first thing on a link, and never while the link set is
// already non-empty.
func TestQuiescentLifecycle(t *testing.T) {
	m, err := NewMesh(3, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := Coord{2, 2}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 16, 4)

	if !m.Quiescent() {
		t.Fatal("fresh mesh not quiescent")
	}
	if m.linkBusy.any() || m.RoutersAwake() {
		t.Fatalf("fresh mesh: busy links %v, awake routers %v, want both empty", m.linkBusy, m.routerAwake)
	}

	woke := 0
	m.OnWake = func() {
		if m.linkBusy.any() {
			t.Fatalf("OnWake fired with the link set already non-empty: %v", m.linkBusy)
		}
		woke++
	}

	// A queued packet is injector-resident: the mesh itself is untouched.
	inj.Enqueue(mkPacket(1, src, dst, 4))
	if !m.Quiescent() || m.linkBusy.any() || m.RoutersAwake() {
		t.Fatal("enqueue alone must not disturb the mesh")
	}
	if woke != 0 {
		t.Fatal("enqueue alone must not wake the mesh")
	}

	// The first Step launches the head flit onto the local link.
	inj.Step(0)
	if m.Quiescent() {
		t.Fatal("mesh quiescent with a flit in flight")
	}
	if !m.linkBusy.has(int(inj.link.idx)) {
		t.Fatal("link set empty with a flit in flight")
	}
	if woke != 1 {
		t.Fatalf("empty-to-busy transition fired OnWake %d times, want 1", woke)
	}

	// Drive to completion. The sets are the wider predicate: they also
	// cover credits in flight, so empty sets imply quiescence but not the
	// reverse. Every cycle launches and returns credits on several links;
	// only the first of them may fire OnWake.
	delivered := false
	var now int64
	cycle := func() {
		if !m.linkBusy.any() && !m.RoutersAwake() && !m.Quiescent() {
			t.Fatalf("cycle %d: both sets empty on a non-quiescent mesh", now)
		}
		woke = 0
		m.Deliver(now)
		if m.linkBusy.any() {
			t.Fatalf("cycle %d: Deliver left links busy: %v", now, m.linkBusy)
		}
		m.Arbitrate(now)
		inj.Step(now)
		sink.Step(now)
		delivered = delivered || sink.Pop(now) != nil
		want := 0
		if m.linkBusy.any() {
			want = 1
		}
		if woke != want {
			t.Fatalf("cycle %d: OnWake fired %d times, link set %v: want %d", now, woke, m.linkBusy, want)
		}
		now++
	}
	for now = 1; now < 100 && !delivered; {
		cycle()
	}
	if !delivered {
		t.Fatal("packet not delivered")
	}
	if !m.Quiescent() {
		t.Fatal("mesh not quiescent after drain")
	}
	// The pop released credits into a mesh with nothing else on its
	// links: that return is an empty-to-busy edge of its own — the kernel
	// relies on it to carry the credits home.
	if woke != 1 || !m.linkBusy.any() {
		t.Fatalf("post-drain credit return: OnWake fired %d times, link set %v; want 1 and non-empty", woke, m.linkBusy)
	}
	// A few more cycles flush them; only then must both sets read empty.
	for now < 110 {
		cycle()
	}
	if m.linkBusy.any() || m.RoutersAwake() {
		t.Fatalf("after credit flush: busy links %v, awake routers %v, want both empty", m.linkBusy, m.routerAwake)
	}
}

// TestQuiescentSinkResidency pins down the boundary: a packet parked in
// the sink's ready list keeps the mesh quiescent (links and router
// buffers are clear, both active sets empty) even though the NI still
// holds it.
func TestQuiescentSinkResidency(t *testing.T) {
	m, _ := NewMesh(2, 2, 8)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 16, 4)
	inj.Enqueue(mkPacket(1, src, dst, 2))
	for now := int64(0); now < 60; now++ {
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
	}
	if sink.Ready() != 1 {
		t.Fatalf("sink ready = %d, want the packet parked", sink.Ready())
	}
	if !m.Quiescent() {
		t.Fatal("mesh must be quiescent with the packet sink-resident")
	}
	if m.linkBusy.any() || m.RoutersAwake() {
		t.Fatalf("busy links %v, awake routers %v with the packet sink-resident, want both empty",
			m.linkBusy, m.routerAwake)
	}
}
