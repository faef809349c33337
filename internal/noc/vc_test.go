package noc

import (
	"testing"

	"aanoc/internal/dram"
)

func mkVCPacket(id int64, src, dst Coord, flits int, pri bool) *Packet {
	return &Packet{
		ID: id, ParentID: id, Src: src, Dst: dst,
		Kind: Write, Class: ClassMedia, Priority: pri,
		Flits: flits, Beats: flits * 2, Splits: 1,
		Addr: dram.Address{Bank: int(id) % 4, Row: int(id)},
	}
}

func TestNewMeshVCValidation(t *testing.T) {
	if _, err := NewMeshVC(3, 3, 8, 0); err == nil {
		t.Error("0 VCs accepted")
	}
	if _, err := NewMeshVC(3, 3, 8, 3); err == nil {
		t.Error("3 VCs accepted")
	}
	if _, err := NewMeshVC(3, 3, 8, 5); err == nil {
		t.Error("5 VCs accepted")
	}
	m, err := NewMeshVC(3, 3, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.vcs != 2 {
		t.Fatalf("VCs = %d", m.vcs)
	}
}

func TestVCOfAssignsPriorityChannel(t *testing.T) {
	pri := mkVCPacket(1, Coord{}, Coord{}, 1, true)
	be := mkVCPacket(2, Coord{}, Coord{}, 1, false)
	if vcOf(pri, 2) != 1 || vcOf(be, 2) != 0 {
		t.Error("2-VC assignment wrong")
	}
	if vcOf(pri, 1) != 0 || vcOf(be, 1) != 0 {
		t.Error("single-VC assignment must always be 0")
	}
}

// TestPriorityOvertakesLongTransfer is the point of the VC organisation:
// a priority packet injected after a long best-effort packet has started
// its wormhole transfer still arrives first, because its flits take the
// links on the priority VC.
func TestPriorityOvertakesLongTransfer(t *testing.T) {
	deliverOrder := func(vcs int) []int64 {
		m, err := NewMeshVC(3, 1, 4, vcs)
		if err != nil {
			t.Fatal(err)
		}
		src, dst := Coord{2, 0}, Coord{0, 0}
		inj := m.AttachInjector(src)
		sink := m.AttachSink(dst, 8, 8)
		long := mkVCPacket(1, src, dst, 40, false)
		pri := mkVCPacket(2, src, dst, 1, true)
		inj.Enqueue(long)
		var order []int64
		for now := int64(0); now < 300; now++ {
			if now == 10 {
				inj.Enqueue(pri) // arrives mid-transfer of the long packet
			}
			m.Cycle(now)
			inj.Step(now)
			sink.Step(now)
			for {
				p := sink.Pop(now)
				if p == nil {
					break
				}
				order = append(order, p.ID)
			}
		}
		return order
	}
	worm := deliverOrder(1)
	if len(worm) != 2 || worm[0] != 1 {
		t.Fatalf("wormhole: long packet should block the late priority packet, order %v", worm)
	}
	vc := deliverOrder(2)
	if len(vc) != 2 || vc[0] != 2 {
		t.Fatalf("2 VCs: priority packet should overtake, order %v", vc)
	}
}

// TestVCFlitsDoNotMix: flit interleaving on the link must never corrupt
// per-VC packet reassembly (the acceptFlit wormhole assertion would
// panic).
func TestVCFlitsDoNotMix(t *testing.T) {
	m, err := NewMeshVC(4, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	dst := Coord{0, 0}
	sink := m.AttachSink(dst, 8, 8)
	var injs []*Injector
	id := int64(0)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			c := Coord{x, y}
			if c == dst {
				continue
			}
			inj := m.AttachInjector(c)
			for k := 0; k < 4; k++ {
				id++
				inj.Enqueue(mkVCPacket(id, c, dst, 1+int(id)%9, id%3 == 0))
			}
			injs = append(injs, inj)
		}
	}
	got := map[int64]bool{}
	for now := int64(0); now < 8000; now++ {
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
			if got[p.ID] {
				t.Fatalf("packet %d delivered twice", p.ID)
			}
			got[p.ID] = true
		}
	}
	if int64(len(got)) != id {
		t.Fatalf("delivered %d of %d packets", len(got), id)
	}
	if !m.Quiescent() {
		t.Error("mesh not quiescent")
	}
}

// TestVCBestEffortStillProgresses: the priority VC must not starve the
// best-effort VC when priority traffic is continuous (link cycles go to
// priority first, but best-effort flits use every gap).
func TestVCBestEffortStillProgresses(t *testing.T) {
	m, _ := NewMeshVC(2, 1, 4, 2)
	src, dst := Coord{1, 0}, Coord{0, 0}
	inj := m.AttachInjector(src)
	sink := m.AttachSink(dst, 8, 8)
	id := int64(0)
	be := 0
	for now := int64(0); now < 2000; now++ {
		// Saturate the priority VC.
		if inj.QueueFlits() < 8 {
			id++
			inj.Enqueue(mkVCPacket(id, src, dst, 2, true))
			id++
			inj.Enqueue(mkVCPacket(id, src, dst, 2, false))
		}
		m.Cycle(now)
		inj.Step(now)
		sink.Step(now)
		for {
			p := sink.Pop(now)
			if p == nil {
				break
			}
			if !p.Priority {
				be++
			}
		}
	}
	if be == 0 {
		t.Fatal("best-effort traffic starved by the priority VC")
	}
}
