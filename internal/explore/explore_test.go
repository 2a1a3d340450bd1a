package explore

import (
	"math"
	"testing"
)

func quadEval(x []float64) float64 { return 5 - x[0]*x[0] - 2*x[1]*x[1] + x[0] }

func TestSweep1D(t *testing.T) {
	pts, err := Sweep1D(quadEval, []float64{0, 0}, 0, 11, func(c float64) float64 { return 10 + 5*c })
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 11 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Coded != -1 || pts[10].Coded != 1 {
		t.Fatal("sweep endpoints wrong")
	}
	if pts[0].Natural != 5 || pts[10].Natural != 15 {
		t.Fatalf("natural units wrong: %v %v", pts[0].Natural, pts[10].Natural)
	}
	// Maximum of 5 − c² + c is at c = 0.5.
	best := pts[0]
	for _, p := range pts {
		if p.Y > best.Y {
			best = p
		}
	}
	if math.Abs(best.Coded-0.6) > 0.21 {
		t.Fatalf("sweep max at %v, want ≈0.5", best.Coded)
	}
}

func TestSweep1DValidation(t *testing.T) {
	if _, err := Sweep1D(quadEval, []float64{0, 0}, 5, 10, nil); err == nil {
		t.Fatal("bad factor index must error")
	}
	if _, err := Sweep1D(quadEval, []float64{0, 0}, 0, 1, nil); err == nil {
		t.Fatal("n=1 must error")
	}
}

func TestSweepDoesNotMutateBase(t *testing.T) {
	base := []float64{0.5, 0.5}
	if _, err := Sweep1D(quadEval, base, 0, 5, nil); err != nil {
		t.Fatal(err)
	}
	if base[0] != 0.5 {
		t.Fatal("base mutated")
	}
}

func TestSurface2D(t *testing.T) {
	g, err := Surface2D(quadEval, []float64{0, 0}, 0, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Z) != 21 || len(g.Z[0]) != 21 {
		t.Fatal("grid dims wrong")
	}
	mn, mx := g.MinMax()
	if mn >= mx {
		t.Fatalf("MinMax broken: %v %v", mn, mx)
	}
	// Analytic max of 5 − x² + x − 2y² on the grid: x=0.5, y=0 → 5.25.
	if math.Abs(mx-5.25) > 0.05 {
		t.Fatalf("grid max = %v, want ≈5.25", mx)
	}
	// Grid values consistent with direct evaluation.
	if got := g.Z[0][0]; got != quadEval([]float64{-1, -1}) {
		t.Fatalf("corner value %v", got)
	}
}

func TestSurface2DValidation(t *testing.T) {
	if _, err := Surface2D(quadEval, []float64{0, 0}, 0, 0, 5); err == nil {
		t.Fatal("identical factors must error")
	}
	if _, err := Surface2D(quadEval, []float64{0, 0}, 0, 3, 5); err == nil {
		t.Fatal("bad factor index must error")
	}
	if _, err := Surface2D(quadEval, []float64{0, 0}, 0, 1, 1); err == nil {
		t.Fatal("n=1 must error")
	}
}

func TestEvaluateAll(t *testing.T) {
	pts := [][]float64{{0, 0}, {1, 1}}
	objs := []Evaluator{
		func(x []float64) float64 { return x[0] + x[1] },
		func(x []float64) float64 { return x[0] - x[1] },
	}
	cands := EvaluateAll(pts, objs)
	if len(cands) != 2 {
		t.Fatal("candidate count wrong")
	}
	if cands[1].Objectives[0] != 2 || cands[1].Objectives[1] != 0 {
		t.Fatalf("objectives = %v", cands[1].Objectives)
	}
	// Points are copied.
	cands[0].X[0] = 99
	if pts[0][0] == 99 {
		t.Fatal("EvaluateAll must copy points")
	}
}

func TestParetoFront(t *testing.T) {
	cands := []Candidate{
		{X: []float64{0}, Objectives: []float64{1, 5}}, // on front
		{X: []float64{1}, Objectives: []float64{3, 3}}, // on front
		{X: []float64{2}, Objectives: []float64{5, 1}}, // on front
		{X: []float64{3}, Objectives: []float64{2, 2}}, // dominated by (3,3)
		{X: []float64{4}, Objectives: []float64{1, 4}}, // dominated by (1,5)
	}
	front := ParetoFront(cands)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	for _, c := range front {
		if c.X[0] == 3 || c.X[0] == 4 {
			t.Fatalf("dominated point %v on front", c.X)
		}
	}
}

func TestParetoFrontTies(t *testing.T) {
	// Equal candidates do not dominate each other: both stay.
	cands := []Candidate{
		{X: []float64{0}, Objectives: []float64{1, 1}},
		{X: []float64{1}, Objectives: []float64{1, 1}},
	}
	if got := len(ParetoFront(cands)); got != 2 {
		t.Fatalf("tied candidates on front = %d, want 2", got)
	}
}

func TestParetoEmptyAndSingle(t *testing.T) {
	if ParetoFront(nil) != nil {
		t.Fatal("empty input must give empty front")
	}
	one := []Candidate{{X: []float64{0}, Objectives: []float64{1}}}
	if len(ParetoFront(one)) != 1 {
		t.Fatal("single candidate is trivially on the front")
	}
}

func TestConstraintsAndFilter(t *testing.T) {
	cands := []Candidate{
		{X: []float64{0}, Objectives: []float64{1, 10}},
		{X: []float64{1}, Objectives: []float64{5, 20}},
		{X: []float64{2}, Objectives: []float64{9, 30}},
	}
	got := Filter(cands, AtLeast(0, 4), AtMost(1, 25))
	if len(got) != 1 || got[0].X[0] != 1 {
		t.Fatalf("filtered = %v", got)
	}
	// Out-of-range objective index fails closed.
	if len(Filter(cands, AtLeast(7, 0))) != 0 {
		t.Fatal("bad index must reject")
	}
}
