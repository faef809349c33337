package noc

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// collectViolations runs Audit and returns the reported kinds.
func collectViolations(m *Mesh) []string {
	var kinds []string
	m.Audit(func(kind, format string, args ...any) {
		kinds = append(kinds, kind+": "+fmt.Sprintf(format, args...))
	})
	return kinds
}

// TestAuditCleanTraffic drives a congested many-to-one workload and
// audits after every cycle: a correct mesh must never trip a
// conservation check, mid-transfer states included.
func TestAuditCleanTraffic(t *testing.T) {
	for _, vcs := range []int{1, 2} {
		t.Run(fmt.Sprintf("vcs=%d", vcs), func(t *testing.T) {
			m, err := NewMeshVC(3, 3, 4, vcs)
			if err != nil {
				t.Fatal(err)
			}
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
					for k := 0; k < 4; k++ {
						id++
						p := mkPacket(id, c, dst, 1+int(id)%6)
						p.Priority = id%3 == 0
						inj.Enqueue(p)
					}
					injs = append(injs, inj)
				}
			}
			delivered := 0
			for now := int64(0); now < 600; now++ {
				m.Cycle(now)
				for _, inj := range injs {
					inj.Step(now)
				}
				sink.Step(now)
				for sink.Pop(now) != nil {
					delivered++
				}
				if vs := collectViolations(m); len(vs) > 0 {
					t.Fatalf("cycle %d: audit flagged a healthy mesh: %v", now, vs)
				}
			}
			if delivered != int(id) {
				t.Fatalf("delivered %d of %d packets", delivered, id)
			}
			var launched, drained int64
			for _, inj := range injs {
				launched += inj.launched
			}
			drained = sink.drained
			if launched == 0 || launched != drained {
				t.Fatalf("launched %d flits, drained %d", launched, drained)
			}
		})
	}
}

// TestAuditCatchesCreditLeak steals a credit from a router output and
// expects the conservation walk to notice.
func TestAuditCatchesCreditLeak(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	m.AttachInjector(Coord{1, 1})
	m.AttachSink(Coord{0, 0}, 8, 4)
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("fresh mesh not clean: %v", vs)
	}
	m.RouterAt(Coord{1, 1}).Out[PortWest].credits[0]--
	vs := collectViolations(m)
	if len(vs) == 0 {
		t.Fatal("credit leak not flagged")
	}
}

// TestAuditCatchesDuplicatedCredit gives a sender one credit too many —
// the overflow-causing direction.
func TestAuditCatchesDuplicatedCredit(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	m.RouterAt(Coord{1, 1}).Out[PortWest].credits[0]++
	vs := collectViolations(m)
	found := false
	for _, v := range vs {
		if v[:12] == "credit-bound" {
			found = true
		}
	}
	if !found {
		t.Fatalf("credit duplication not flagged as credit-bound: %v", vs)
	}
}

// TestAuditCatchesLostFlit decrements a buffer occupancy as if a flit
// evaporated, and expects the buffer accounting and the mesh-level flit
// ledger to complain — and the link's credit loop, of which the buffered
// flit is a term too.
func TestAuditCatchesLostFlit(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	m.AttachSink(dst, 8, 4)
	inj.Enqueue(mkPacket(1, src, dst, 4))
	// Launch one flit and deliver it, without stepping the routers — a
	// full Mesh.Cycle would forward it onward immediately.
	buf := &m.RouterAt(src).In[PortLocal].bufs[0]
	inj.Step(0)
	m.deliver(1)
	if buf.occupied == 0 {
		t.Fatal("no flit reached the router buffer")
	}
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("healthy mesh flagged: %v", vs)
	}
	buf.occupied--
	want := []string{"credit-conservation", "buffer-accounting", "flit-conservation"}
	if got := violationKinds(m); !slices.Equal(got, want) {
		t.Fatalf("evaporated flit reported as %v, want %v", got, want)
	}
}

// violationKinds runs Audit and returns the kind of each report, in order.
func violationKinds(m *Mesh) []string {
	var kinds []string
	m.Audit(func(kind, _ string, _ ...any) { kinds = append(kinds, kind) })
	return kinds
}

// TestMeshAuditKindsTrip is the mesh audit's rows of the fault matrix:
// one row per report site of buffer-bound, buffer-accounting,
// flit-conservation and transfer-order, each corrupting one buffer,
// transfer or flit ledger of a built mesh and asserting exactly the
// kinds, in order, that the audit reports. A buffer's occupancy is also a
// term of its link's credit loop and of the flit ledger, so a row that
// moves it lists those kinds too.
func TestMeshAuditKindsTrip(t *testing.T) {
	src, dst := Coord{1, 1}, Coord{0, 0}
	for _, tc := range []struct {
		name   string
		doctor func(m *Mesh, head *InputBuffer, sink *Sink)
		want   []string
	}{
		{"clean", func(*Mesh, *InputBuffer, *Sink) {}, nil},
		{"sent-beyond-arrived", func(_ *Mesh, b *InputBuffer, _ *Sink) { b.packets[0].Sent = 2 },
			[]string{"buffer-accounting", "buffer-accounting"}},
		{"arrived-beyond-length", func(_ *Mesh, b *InputBuffer, _ *Sink) { b.packets[0].Arrived = 5 },
			[]string{"buffer-accounting", "buffer-accounting"}},
		{"occupancy-above-capacity", func(_ *Mesh, b *InputBuffer, _ *Sink) { b.occupied = b.capacity + 1 },
			[]string{"credit-conservation", "buffer-bound", "buffer-accounting", "flit-conservation"}},
		{"flit-drained-twice", func(_ *Mesh, _ *InputBuffer, s *Sink) { s.drained++ },
			[]string{"flit-conservation"}},
		{"transfer-not-head", func(m *Mesh, b *InputBuffer, _ *Sink) {
			m.RouterAt(src).Out[PortWest].active[0] = activeXfer{buf: b, pp: &PacketProgress{Pkt: mkPacket(9, src, dst, 4)}}
		}, []string{"transfer-order"}},
		{"transfer-past-tail", func(m *Mesh, _ *InputBuffer, _ *Sink) {
			// A transfer whose tail has left but that still holds its
			// output VC and its buffer head.
			r := m.RouterAt(dst)
			pp := &PacketProgress{Pkt: mkPacket(9, Coord{1, 0}, dst, 2), Arrived: 2, Sent: 2, route: PortLocal}
			b := &r.In[PortEast].bufs[0]
			b.packets = append(b.packets, pp)
			r.want[PortLocal]++
			r.Out[PortLocal].active[0] = activeXfer{buf: b, pp: pp}
		}, []string{"transfer-order"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The router at src holds the first flit of a 4-flit packet
			// bound west, delivered but not yet arbitrated.
			m, _ := NewMesh(2, 2, 4)
			inj := m.AttachInjector(src)
			sink := m.AttachSink(dst, 8, 4)
			inj.Enqueue(mkPacket(1, src, dst, 4))
			inj.Step(0)
			m.deliver(1)
			head := &m.RouterAt(src).In[PortLocal].bufs[0]
			if head.occupied != 1 {
				t.Fatalf("router buffer holds %d flits, want 1", head.occupied)
			}
			tc.doctor(m, head, sink)
			if got := violationKinds(m); !slices.Equal(got, tc.want) {
				t.Fatalf("audit reported %v, want %v", got, tc.want)
			}
		})
	}
}

// TestAuditCatchesInjectBacklogDrift: the injector's backlog counter is
// kept incrementally beside its linked queues; checked mode recounts the
// queues, so a counter that drifts from them is a violation.
func TestAuditCatchesInjectBacklogDrift(t *testing.T) {
	m, _ := NewMeshVC(2, 2, 4, 2)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	m.AttachSink(dst, 8, 4)
	inj.Enqueue(mkPacket(1, src, dst, 4))
	pri := mkPacket(2, src, dst, 3)
	pri.Priority = true
	inj.Enqueue(pri)
	inj.Enqueue(mkPacket(3, src, dst, 2))
	inj.Step(0)
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("healthy queues flagged: %v", vs)
	}
	inj.queuedFlits++
	vs := collectViolations(m)
	if len(vs) != 1 || !strings.HasPrefix(vs[0], "inject-backlog") {
		t.Fatalf("backlog drift not flagged as inject-backlog: %v", vs)
	}
}

// TestEnqueueTwicePanics: a packet links into one injection queue at a
// time, so queueing it again while it waits would corrupt the FIFO.
func TestEnqueueTwicePanics(t *testing.T) {
	m, _ := NewMesh(2, 1, 4)
	src, dst := Coord{0, 0}, Coord{1, 0}
	inj := m.AttachInjector(src)
	a, b := mkPacket(1, src, dst, 2), mkPacket(2, src, dst, 2)
	inj.Enqueue(a)
	inj.Enqueue(b)
	for _, p := range []*Packet{a, b} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("packet %d enqueued twice without a panic", p.ID)
				}
			}()
			inj.Enqueue(p)
		}()
	}
}

// TestAuditCatchesWormholeReorder marks a non-head packet as partially
// forwarded.
func TestAuditCatchesWormholeReorder(t *testing.T) {
	m, _ := NewMesh(2, 2, 8)
	buf := &m.RouterAt(Coord{0, 0}).In[PortEast].bufs[0]
	a := mkPacket(1, Coord{1, 0}, Coord{0, 0}, 2)
	b := mkPacket(2, Coord{1, 0}, Coord{0, 0}, 2)
	buf.packets = []*PacketProgress{
		{Pkt: a, Arrived: 2, Sent: 1},
		{Pkt: b, Arrived: 2, Sent: 1},
	}
	buf.occupied = 2
	var found []string
	m.Audit(func(kind, format string, args ...any) {
		if kind == "wormhole-order" {
			found = append(found, fmt.Sprintf(format, args...))
		}
	})
	// The buffer is named as the checker has always printed it.
	want := "router (0,0) in east vc 0: non-head packet 1 has 1 forwarded flits"
	if len(found) != 1 || found[0] != want {
		t.Fatalf("forwarded non-head packet reported as %q, want one wormhole-order %q", found, want)
	}
}

// activityViolations filters the audit's reports down to the active-set
// kind the two active sets and their counters are checked under.
func activityViolations(m *Mesh) []string {
	var out []string
	for _, v := range collectViolations(m) {
		if strings.HasPrefix(v, "active-set: ") {
			out = append(out, v)
		}
	}
	return out
}

// TestAuditCatchesClearedLinkBit drops a link holding a flit out of the
// busy set — deliver would never visit it and the flit would sit on the
// wire forever.
func TestAuditCatchesClearedLinkBit(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	m.AttachSink(dst, 8, 4)
	inj.Enqueue(mkPacket(1, src, dst, 4))
	inj.Step(0)
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("mesh with a flit in flight not clean: %v", vs)
	}
	m.linkBusy.clear(int(inj.link.idx))
	if vs := activityViolations(m); len(vs) != 1 || !strings.Contains(vs[0], "busy bit") {
		t.Fatalf("link holding a flit outside the busy set reported as %v, want one active-set", vs)
	}
}

// TestAuditCatchesSleepingRouter puts a router to sleep while it holds a
// head packet, a free output channel for it and the credits to send —
// arbitrate would pass it over until some unrelated delivery.
func TestAuditCatchesSleepingRouter(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	m.AttachSink(dst, 8, 4)
	inj.Enqueue(mkPacket(1, src, dst, 4))
	inj.Step(0)
	m.deliver(1) // the head flit lands in (1,1)'s local input; no arbitrate yet
	r := m.index(src)
	if !m.routerAwake.has(r) {
		t.Fatal("delivery did not wake the receiving router")
	}
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("mesh with a freshly arrived head not clean: %v", vs)
	}
	m.routerAwake.clear(r)
	if vs := activityViolations(m); len(vs) != 1 || !strings.Contains(vs[0], "asleep") {
		t.Fatalf("router asleep on an allocatable head reported as %v, want one active-set", vs)
	}
}

// TestAuditCatchesWantDrift zeroes a router's want entry under a resident
// packet. want is the only counter between a waiting head and a sleeping
// router: step would pass the port over, report nothing to do, and the
// packet would never leave.
func TestAuditCatchesWantDrift(t *testing.T) {
	m, _ := NewMesh(2, 2, 4)
	src, dst := Coord{1, 1}, Coord{0, 0}
	inj := m.AttachInjector(src)
	m.AttachSink(dst, 8, 4)
	inj.Enqueue(mkPacket(1, src, dst, 4))
	inj.Step(0)
	m.deliver(1) // the head flit lands in (1,1)'s local input
	r := m.RouterAt(src)
	out := XYRoute(src, dst)
	if r.want[out] != 1 {
		t.Fatalf("want %v after one head bound for %s, want 1 there", r.want, PortName(out))
	}
	if vs := collectViolations(m); len(vs) != 0 {
		t.Fatalf("mesh with a freshly arrived head not clean: %v", vs)
	}
	r.want[out] = 0
	if vs := activityViolations(m); len(vs) != 1 || !strings.Contains(vs[0], "resident routes") {
		t.Fatalf("zeroed want under a resident packet reported as %v, want one active-set", vs)
	}
	// What the drift would cost: the router steps, finds nothing, sleeps.
	m.arbitrate(1)
	if m.Busy() {
		t.Fatal("router with a zeroed want still forwarded its packet; the fault is not a fault")
	}
}

// TestAuditActiveSetsCleanWhenBlockedAndDrained is the other half: the
// sets a correct mesh keeps are never flagged, in the two states the
// sleep rules exist for. Saturated — the sink's consumer never pops, so
// backpressure fills every buffer on the path and each router, holding
// packets it cannot move, goes to sleep; and drained — the consumer
// catches up and both sets empty out.
func TestAuditActiveSetsCleanWhenBlockedAndDrained(t *testing.T) {
	m, _ := NewMesh(3, 3, 4)
	dst := Coord{0, 0}
	sink := m.AttachSink(dst, 8, 2)
	var injs []*Injector
	id := int64(0)
	for _, c := range []Coord{{2, 2}, {2, 0}, {0, 2}, {1, 1}} {
		inj := m.AttachInjector(c)
		for k := 0; k < 6; k++ {
			id++
			inj.Enqueue(mkPacket(id, c, dst, 5))
		}
		injs = append(injs, inj)
	}
	now := int64(0)
	cycle := func(pop bool) {
		m.Cycle(now)
		for _, inj := range injs {
			inj.Step(now)
		}
		sink.Step(now)
		for pop && sink.Pop(now) != nil {
		}
		if vs := collectViolations(m); len(vs) != 0 {
			t.Fatalf("cycle %d: audit flagged a healthy mesh: %v", now, vs)
		}
		now++
	}
	for now < 200 {
		cycle(false)
	}
	_, stepsBlocked := m.WorkCounts()
	for now < 300 {
		cycle(false)
	}
	if _, steps := m.WorkCounts(); steps != stepsBlocked {
		t.Errorf("a fully blocked mesh stepped routers %d times over 100 cycles, want 0", steps-stepsBlocked)
	}
	if m.Quiescent() || m.linkBusy.any() || m.routerAwake.any() {
		t.Fatalf("blocked mesh: quiescent %t, busy links %v, awake routers %v; want packets resident and both sets empty",
			m.Quiescent(), m.linkBusy, m.routerAwake)
	}
	for now < 900 {
		cycle(true)
	}
	if !m.Quiescent() || m.linkBusy.any() || m.routerAwake.any() {
		t.Fatalf("drained mesh: quiescent %t, busy links %v, awake routers %v; want all clear",
			m.Quiescent(), m.linkBusy, m.routerAwake)
	}
	var launched int64
	for _, inj := range injs {
		launched += inj.launched
	}
	if launched != id*5 || launched != sink.drained {
		t.Fatalf("launched %d flits of %d, drained %d", launched, id*5, sink.drained)
	}
}

// TestAuditCleanPathAllocatesNothing: checked mode audits both meshes
// at the end of every visited cycle, so a clean walk over a loaded mesh
// — every buffer holding packets, links carrying flits and credits —
// must not allocate. Buffers are named only when a violation is
// reported.
func TestAuditCleanPathAllocatesNothing(t *testing.T) {
	m, err := NewMeshVC(3, 3, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
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
			for k := 0; k < 6; k++ {
				id++
				p := mkPacket(id, c, dst, 1+int(id)%6)
				p.Priority = id%3 == 0
				inj.Enqueue(p)
			}
			injs = append(injs, inj)
		}
	}
	// The sink is never popped: it fills, and the mesh backs up behind it.
	for now := int64(0); now < 40; now++ {
		m.Cycle(now)
		for _, inj := range injs {
			inj.Step(now)
		}
		sink.Step(now)
	}
	resident := 0
	for _, r := range m.Routers {
		for port := range r.In {
			resident += r.In[port].occupied()
		}
	}
	if resident == 0 {
		t.Fatal("the mesh drained: nothing left to audit")
	}
	if vs := collectViolations(m); len(vs) > 0 {
		t.Fatalf("audit flagged a healthy mesh: %v", vs)
	}
	report := func(kind, format string, args ...any) { t.Errorf("%s: "+format, append([]any{kind}, args...)...) }
	if avg := testing.AllocsPerRun(100, func() { m.Audit(report) }); avg != 0 {
		t.Fatalf("a clean Mesh.Audit allocates %.1f times, want 0", avg)
	}
}
