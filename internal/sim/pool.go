package sim

import "slices"

// Carve cuts the next n elements off the slab *s, with cap == len so an
// append to the piece reallocates instead of overwriting its neighbour:
// a population of objects, or of their per-object slices, costs one
// allocation per kind instead of one per object.
func Carve[T any](s *[]T, n int) []T {
	p := (*s)[:n:n]
	*s = (*s)[n:]
	return p
}

// poolSlab is how many objects a dry Pool allocates at once.
const poolSlab = 64

// Pool is a free-list of *T owned by one simulation object (a runner, a
// mesh, a command pipeline): never shared, so concurrent sweeps stay
// race-free without locks. The zero value is ready to use. A dry pool
// grows by one slab, so the cost of reaching a run's high-water mark is
// one allocation per poolSlab objects; after that Get and Put recycle.
type Pool[T any] struct {
	free []*T
}

// Get leases an object. It is zero unless the holder of an earlier lease
// wrote through its pointer after Put.
func (p *Pool[T]) Get() *T {
	if len(p.free) == 0 {
		slab := make([]T, poolSlab)
		p.free = slices.Grow(p.free, poolSlab)
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
	}
	n := len(p.free) - 1
	x := p.free[n]
	p.free = p.free[:n]
	return x
}

// Put returns an object nothing references any more. It is zeroed, so a
// stale read after recycling is loud and the pool pins no pointer the
// object held.
func (p *Pool[T]) Put(x *T) {
	var zero T
	*x = zero
	p.free = append(p.free, x)
}
