package mapping

import (
	"testing"
	"testing/quick"

	"aanoc/internal/noc"
)

// starProblem builds the common SoC shape: entity 0 is the memory
// subsystem pinned at the corner; everyone else talks only to it with the
// given weights.
func starProblem(w, h int, weights []float64) *Problem {
	n := len(weights) + 1
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	for i, wt := range weights {
		m[0][i+1] = wt
		m[i+1][0] = wt
	}
	return &Problem{
		Width: w, Height: h, Weights: m,
		Fixed: map[int]noc.Coord{0: {X: 0, Y: 0}},
	}
}

func TestValidateRejects(t *testing.T) {
	if err := (&Problem{Width: 2, Height: 2}).Validate(); err == nil {
		t.Error("empty matrix accepted")
	}
	p := starProblem(2, 2, []float64{1, 1, 1, 1}) // 5 entities on 4 slots
	if err := p.Validate(); err == nil {
		t.Error("oversubscribed mesh accepted")
	}
	p2 := starProblem(2, 2, []float64{1})
	p2.Fixed[0] = noc.Coord{X: 5, Y: 5}
	if err := p2.Validate(); err == nil {
		t.Error("out-of-mesh fixed position accepted")
	}
}

func TestSolvePlacesHeavyCoreNextToMemory(t *testing.T) {
	// One core with weight 100, seven with weight 1: the heavy one must
	// land adjacent to the memory corner.
	p := starProblem(3, 3, []float64{100, 1, 1, 1, 1, 1, 1, 1})
	pos, err := p.Solve(1)
	if err != nil {
		t.Fatal(err)
	}
	if d := noc.HopDistance(pos[1], pos[0]); d != 1 {
		t.Errorf("heavy core at distance %d from memory, want 1", d)
	}
}

func TestSolveRespectsFixed(t *testing.T) {
	p := starProblem(3, 3, []float64{5, 4, 3, 2, 1})
	pos, err := p.Solve(2)
	if err != nil {
		t.Fatal(err)
	}
	if pos[0] != (noc.Coord{X: 0, Y: 0}) {
		t.Fatalf("fixed entity moved to %v", pos[0])
	}
}

func TestSolveDeterministic(t *testing.T) {
	p := starProblem(3, 3, []float64{7, 3, 9, 1, 5, 2, 8, 4})
	a, _ := p.Solve(42)
	q := starProblem(3, 3, []float64{7, 3, 9, 1, 5, 2, 8, 4})
	b, _ := q.Solve(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give same placement")
		}
	}
}

func TestSolveBeatsWorstCase(t *testing.T) {
	p := starProblem(4, 4, []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1})
	pos, err := p.Solve(3)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Cost(pos)
	// Worst case: heaviest cores at maximal distance.
	worst := 0.0
	dists := []int{6, 6, 5, 5, 5, 4, 4, 4, 4, 3, 3, 3, 2, 2, 1}
	ws := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1}
	for i := range ws {
		worst += 2 * ws[i] * float64(dists[i])
	}
	if got >= worst {
		t.Errorf("cost %v not better than pessimal %v", got, worst)
	}
}

func TestPropertySolveProducesValidPlacement(t *testing.T) {
	f := func(raw []uint8, seed uint64) bool {
		if len(raw) == 0 || len(raw) > 8 {
			return true
		}
		weights := make([]float64, len(raw))
		for i, v := range raw {
			weights[i] = float64(v%50) + 1
		}
		p := starProblem(3, 3, weights)
		pos, err := p.Solve(seed)
		if err != nil {
			return false
		}
		// No duplicates, all in mesh.
		seen := map[noc.Coord]bool{}
		for _, c := range pos {
			if c.X < 0 || c.X >= 3 || c.Y < 0 || c.Y >= 3 || seen[c] {
				return false
			}
			seen[c] = true
		}
		return pos[0] == noc.Coord{X: 0, Y: 0}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
