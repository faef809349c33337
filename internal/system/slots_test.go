package system

import (
	"testing"
	"unsafe"

	"aanoc/internal/appmodel"
	"aanoc/internal/dram"
)

// TestLogicalSlots: the slot table hands out 1-based slots, reuses a
// freed one before growing, keeps every record where it was while it
// grows past 64, 128 and 192 records, and walks its live records in
// parent-ID order however they were removed, its live count equal to
// the walk's.
func TestLogicalSlots(t *testing.T) {
	var tab slotTable
	const n = 3*slotSlab + 5
	slots := make([]int32, n)
	recs := make([]*logical, n)
	for i := range slots {
		slots[i], recs[i] = tab.add()
		*recs[i] = logical{id: int64(1000 + i), pending: int32(i)}
		if slots[i] < 1 {
			t.Fatalf("record %d took slot %d, want 1-based", i, slots[i])
		}
	}
	for i := range slots {
		if l := tab.at(slots[i]); l != recs[i] || l.id != int64(1000+i) || l.pending != int32(i) {
			t.Fatalf("slot %d moved or changed after growth to %d records: %p %+v, want %p", slots[i], n, l, l, recs[i])
		}
	}
	// Remove out of order: every third record, last first, then a few
	// from the first slab.
	removed := map[int64]bool{}
	for i := n - 1; i >= 0; i -= 3 {
		tab.remove(slots[i])
		removed[int64(1000+i)] = true
	}
	for _, i := range []int{3, 0, 6} {
		tab.remove(slots[i])
		removed[int64(1000+i)] = true
	}
	s, l := tab.add()
	*l = logical{id: 5000}
	if s != slots[6] {
		t.Errorf("add after freeing slot %d took slot %d, want it reused", slots[6], s)
	}
	var last int64
	walked := 0
	tab.each(func(l *logical) {
		if l.id <= last || removed[l.id] {
			t.Errorf("walk visits %d after %d (removed: %t)", l.id, last, removed[l.id])
		}
		last = l.id
		walked++
	})
	if want := n - len(removed) + 1; walked != want || tab.live != walked {
		t.Errorf("walk finds %d records, live count %d, want %d", walked, tab.live, want)
	}
	if last != 5000 {
		t.Errorf("walk ends at %d, want the newest request 5000", last)
	}
}

// TestLogicalRecordSize pins the slot table's record at 88 bytes on a
// 64-bit platform. Besides the request's bookkeeping it holds the
// template its packets are cut from while it waits in its core's
// backlog, and a saturated run keeps hundreds of records live: a field
// added here is paid by every one of them, and by runs whose requests
// never wait at all.
func TestLogicalRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(logical{}); unsafe.Sizeof(uintptr(0)) == 8 && n > 88 {
		t.Errorf("logical is %d bytes, want at most 88", n)
	}
}

// TestCheckedSplitChains: a checked GSS+SAGM run on DDR3 with writes,
// whose requests travel as split chains, finds every completion's slot
// holding its parent's record.
func TestCheckedSplitChains(t *testing.T) {
	r, err := New(Config{
		App: appmodel.DualDTV(), Gen: dram.DDR3, Design: GSSSAGM,
		Cycles: 20_000, Seed: 3, PriorityDemand: true, Checked: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.RunTo(20_000)
	res := r.Finish()
	var generated, sent int64
	for _, c := range r.cores {
		generated += c.generated
	}
	for i := range r.chans {
		sent += r.chans[i].sent
	}
	if sent <= generated {
		t.Fatalf("%d packets for %d requests: the run split no write", sent, generated)
	}
	if len(res.Obs.Violations) != 0 {
		t.Errorf("violations on a clean split run: %v", res.Obs.Violations)
	}
}
