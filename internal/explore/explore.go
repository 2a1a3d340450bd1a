// Package explore is the designer-facing exploration toolkit the paper
// promises: once the response surfaces are fitted, it answers "what happens
// if I change this parameter" questions practically instantly — 1-D sweeps,
// 2-D contour grids, constrained filtering, and multi-objective Pareto
// fronts over any set of fitted surfaces.
//
// Everything here operates on plain evaluator functions, so the same code
// explores a fitted RSM (fast) or the full simulator (slow) — the CPU-time
// contrast is reproduction table R-T4.
package explore

import (
	"fmt"
	"math"
)

// Evaluator computes one response at a coded design point.
type Evaluator func(x []float64) float64

// SweepPoint is one sample of a 1-D sweep.
type SweepPoint struct {
	Coded   float64 // swept factor's coded level
	Natural float64 // same in natural units (if a factor range was given)
	Y       float64 // response
}

// Sweep1D sweeps factor j of the k-dimensional design space from −1 to +1
// in n points, holding the remaining coordinates at base. If decode is
// non-nil it converts the coded level to natural units for reporting.
func Sweep1D(eval Evaluator, base []float64, j, n int, decode func(float64) float64) ([]SweepPoint, error) {
	if j < 0 || j >= len(base) {
		return nil, fmt.Errorf("explore: factor %d outside 0..%d", j, len(base)-1)
	}
	if n < 2 {
		return nil, fmt.Errorf("explore: need ≥2 sweep points, got %d", n)
	}
	pts := make([]SweepPoint, n)
	x := append([]float64(nil), base...)
	for i := 0; i < n; i++ {
		c := -1 + 2*float64(i)/float64(n-1)
		x[j] = c
		p := SweepPoint{Coded: c, Y: eval(x)}
		if decode != nil {
			p.Natural = decode(c)
		}
		pts[i] = p
	}
	return pts, nil
}

// Grid2D is a response sampled on a 2-D slice of the design space.
type Grid2D struct {
	XLevels []float64   // coded levels of the first swept factor
	YLevels []float64   // coded levels of the second swept factor
	Z       [][]float64 // Z[i][j] = response at (XLevels[i], YLevels[j])
}

// Surface2D samples the response on an n×n grid over factors jx and jy,
// holding the rest at base — the data behind the paper's response-surface
// contour figures.
func Surface2D(eval Evaluator, base []float64, jx, jy, n int) (*Grid2D, error) {
	if jx == jy {
		return nil, fmt.Errorf("explore: need two distinct factors, got %d twice", jx)
	}
	for _, j := range []int{jx, jy} {
		if j < 0 || j >= len(base) {
			return nil, fmt.Errorf("explore: factor %d outside 0..%d", j, len(base)-1)
		}
	}
	if n < 2 {
		return nil, fmt.Errorf("explore: need ≥2 grid points, got %d", n)
	}
	g := &Grid2D{
		XLevels: make([]float64, n),
		YLevels: make([]float64, n),
		Z:       make([][]float64, n),
	}
	for i := 0; i < n; i++ {
		g.XLevels[i] = -1 + 2*float64(i)/float64(n-1)
		g.YLevels[i] = g.XLevels[i]
	}
	x := append([]float64(nil), base...)
	for i := 0; i < n; i++ {
		g.Z[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			x[jx] = g.XLevels[i]
			x[jy] = g.YLevels[j]
			g.Z[i][j] = eval(x)
		}
	}
	return g, nil
}

// MinMax returns the smallest and largest response on the grid.
func (g *Grid2D) MinMax() (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	for _, row := range g.Z {
		for _, v := range row {
			if v < mn {
				mn = v
			}
			if v > mx {
				mx = v
			}
		}
	}
	return mn, mx
}

// Candidate is a design point with its evaluated objectives.
type Candidate struct {
	X          []float64 // coded design point
	Objectives []float64 // one value per objective
}

// EvaluateAll evaluates every objective at every point.
func EvaluateAll(points [][]float64, objectives []Evaluator) []Candidate {
	out := make([]Candidate, len(points))
	for i, x := range points {
		obj := make([]float64, len(objectives))
		for j, f := range objectives {
			obj[j] = f(x)
		}
		out[i] = Candidate{X: append([]float64(nil), x...), Objectives: obj}
	}
	return out
}

// dominates reports whether a dominates b for maximization of every
// objective: no worse everywhere and strictly better somewhere.
func dominates(a, b Candidate) bool {
	strictly := false
	for i := range a.Objectives {
		if a.Objectives[i] < b.Objectives[i] {
			return false
		}
		if a.Objectives[i] > b.Objectives[i] {
			strictly = true
		}
	}
	return strictly
}

// ParetoFront returns the non-dominated subset of candidates, treating
// every objective as maximized (negate a minimized objective first). The
// result preserves input order.
func ParetoFront(cands []Candidate) []Candidate {
	var front []Candidate
	for i, c := range cands {
		dominated := false
		for j, other := range cands {
			if i == j {
				continue
			}
			if dominates(other, c) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

// Constraint is a feasibility predicate over a design point and its
// objective values.
type Constraint func(c Candidate) bool

// AtLeast returns a constraint requiring objective i ≥ v.
func AtLeast(i int, v float64) Constraint {
	return func(c Candidate) bool { return i < len(c.Objectives) && c.Objectives[i] >= v }
}

// AtMost returns a constraint requiring objective i ≤ v.
func AtMost(i int, v float64) Constraint {
	return func(c Candidate) bool { return i < len(c.Objectives) && c.Objectives[i] <= v }
}

// Filter returns the candidates satisfying every constraint.
func Filter(cands []Candidate, constraints ...Constraint) []Candidate {
	var out []Candidate
	for _, c := range cands {
		ok := true
		for _, ct := range constraints {
			if !ct(c) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, c)
		}
	}
	return out
}
