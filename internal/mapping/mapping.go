// Package mapping places cores on a mesh. It provides the A3MAP
// substitute used by the reproduction: a deterministic simulated-annealing
// mapper that minimises communication-weighted hop count over a 2-D mesh,
// plus helpers shared by the Fig. 8 experiment (ordering routers by
// distance from the memory subsystem).
package mapping

import (
	"fmt"
	"sort"

	"aanoc/internal/noc"
	"aanoc/internal/sim"
)

// Problem is a mapping instance: n entities (index 0..n-1) with a
// symmetric communication weight matrix, to be placed on a width x height
// mesh. Entity positions listed in Fixed are pinned (e.g. the memory
// subsystem in its corner).
type Problem struct {
	Width, Height int
	Weights       [][]float64
	Fixed         map[int]noc.Coord
}

// Validate reports malformed instances.
func (p *Problem) Validate() error {
	n := len(p.Weights)
	if n == 0 {
		return fmt.Errorf("mapping: empty weight matrix")
	}
	if n > p.Width*p.Height {
		return fmt.Errorf("mapping: %d entities exceed %dx%d mesh", n, p.Width, p.Height)
	}
	for i, row := range p.Weights {
		if len(row) != n {
			return fmt.Errorf("mapping: weight row %d has %d entries, want %d", i, len(row), n)
		}
	}
	for i, c := range p.Fixed {
		if i < 0 || i >= n {
			return fmt.Errorf("mapping: fixed entity %d out of range", i)
		}
		if c.X < 0 || c.X >= p.Width || c.Y < 0 || c.Y >= p.Height {
			return fmt.Errorf("mapping: fixed position %v outside mesh", c)
		}
	}
	return nil
}

// Cost returns the communication-weighted hop count of a placement.
func (p *Problem) Cost(pos []noc.Coord) float64 {
	var c float64
	for i := range p.Weights {
		for j := i + 1; j < len(p.Weights); j++ {
			w := p.Weights[i][j] + p.Weights[j][i]
			if w != 0 {
				c += w * float64(noc.HopDistance(pos[i], pos[j]))
			}
		}
	}
	return c
}

// Solve runs deterministic simulated annealing (seeded) and returns the
// best placement found. It always returns a valid placement.
func (p *Problem) Solve(seed uint64) ([]noc.Coord, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed)
	n := len(p.Weights)
	slots := make([]noc.Coord, 0, p.Width*p.Height)
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			slots = append(slots, noc.Coord{X: x, Y: y})
		}
	}
	// Initial placement: fixed entities first, the rest greedily by total
	// weight onto the slots closest to their heaviest fixed partner (or
	// mesh centre).
	pos := make([]noc.Coord, n)
	used := map[noc.Coord]bool{}
	for i, c := range p.Fixed {
		pos[i] = c
		used[c] = true
	}
	free := make([]noc.Coord, 0, len(slots))
	for _, s := range slots {
		if !used[s] {
			free = append(free, s)
		}
	}
	var order []int
	for i := 0; i < n; i++ {
		if _, fixed := p.Fixed[i]; !fixed {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		return p.totalWeight(order[a]) > p.totalWeight(order[b])
	})
	fi := 0
	for _, i := range order {
		pos[i] = free[fi]
		fi++
	}
	// Annealing over swaps of two movable entities (or a movable entity
	// and a free slot).
	movable := order
	cur := p.Cost(pos)
	best := append([]noc.Coord(nil), pos...)
	bestCost := cur
	if len(movable) >= 1 {
		temp := cur/float64(n) + 1
		for iter := 0; iter < 4000; iter++ {
			i := movable[rng.Intn(len(movable))]
			j := movable[rng.Intn(len(movable))]
			if i == j {
				continue
			}
			pos[i], pos[j] = pos[j], pos[i]
			next := p.Cost(pos)
			if next <= cur || rng.Float64() < acceptProb(cur, next, temp) {
				cur = next
				if cur < bestCost {
					bestCost = cur
					copy(best, pos)
				}
			} else {
				pos[i], pos[j] = pos[j], pos[i]
			}
			temp *= 0.999
		}
	}
	return best, nil
}

func acceptProb(cur, next, temp float64) float64 {
	if temp <= 0 {
		return 0
	}
	d := (next - cur) / temp
	// Cheap exp(-d) approximation adequate for annealing acceptance.
	switch {
	case d <= 0:
		return 1
	case d >= 8:
		return 0
	default:
		x := 1 - d/8
		x2 := x * x
		return x2 * x2 * x2 * x2
	}
}

func (p *Problem) totalWeight(i int) float64 {
	var w float64
	for j := range p.Weights {
		w += p.Weights[i][j] + p.Weights[j][i]
	}
	return w
}
