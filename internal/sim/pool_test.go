package sim

import "testing"

// TestPoolRecyclesZeroedAndGrowsBySlab: a returned object comes back
// zeroed and before any fresh one; a dry pool costs one allocation per
// slab of objects, not one per object.
func TestPoolRecyclesZeroedAndGrowsBySlab(t *testing.T) {
	type rec struct {
		id  int
		ptr *int
	}
	var p Pool[rec]
	x := 7
	a := p.Get()
	*a = rec{id: 1, ptr: &x}
	p.Put(a)
	if *a != (rec{}) {
		t.Fatalf("Put left %+v behind, want the zero value", *a)
	}
	if b := p.Get(); b != a {
		t.Fatal("Get should hand back the object just returned")
	}

	// Lease three slabs' worth without returning any: distinct objects,
	// and far fewer allocations than objects.
	var q Pool[rec]
	seen := map[*rec]bool{}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 3*poolSlab; i++ {
			q.Get().id = i
		}
	})
	for i := 0; i < 3*poolSlab; i++ {
		seen[q.Get()] = true
	}
	if len(seen) != 3*poolSlab {
		t.Fatalf("%d distinct objects from %d leases", len(seen), 3*poolSlab)
	}
	if allocs > 8 {
		t.Errorf("leasing %d objects cost %.0f allocations, want about one per slab of %d", 3*poolSlab, allocs, poolSlab)
	}

	// Warm, a lease/return cycle allocates nothing.
	held := make([]*rec, 0, poolSlab)
	cycle := func() {
		for i := 0; i < poolSlab; i++ {
			held = append(held, q.Get())
		}
		for _, r := range held {
			q.Put(r)
		}
		held = held[:0]
	}
	cycle()
	if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
		t.Errorf("warm lease/return cycle allocates %.2f, want 0", avg)
	}
}

// TestCarve: pieces come off the front in order, each with cap == len,
// so appending to one reallocates rather than overwriting the next.
func TestCarve(t *testing.T) {
	s := []int{1, 2, 3, 4, 5}
	a, b := Carve(&s, 2), Carve(&s, 2)
	if len(a) != 2 || cap(a) != 2 || b[0] != 3 || len(s) != 1 {
		t.Fatalf("a=%v (cap %d) b=%v rest=%v", a, cap(a), b, s)
	}
	_ = append(a, 9)
	if b[0] != 3 {
		t.Fatal("append to a piece overwrote its neighbour")
	}
}
