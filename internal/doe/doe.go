// Package doe generates designed experiments over k factors in coded units
// (−1 … +1): the experiment plans whose runs are the "moderate number of
// simulations" the paper spends to build its response surfaces.
//
// Provided designs: two-level full factorial, central composite
// (circumscribed/face-centred/inscribed), Box–Behnken, maximin Latin
// hypercube sampling, and D-optimal subsets selected by Fedorov exchange.
package doe

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Design is a set of experiment runs; Runs[i][j] is the coded level of
// factor j in run i.
type Design struct {
	Name string
	Runs [][]float64
}

// K returns the number of factors (0 for an empty design).
func (d *Design) K() int {
	if len(d.Runs) == 0 {
		return 0
	}
	return len(d.Runs[0])
}

// N returns the number of runs.
func (d *Design) N() int { return len(d.Runs) }

// Append returns a new design with the runs of other appended.
func (d *Design) Append(other *Design) (*Design, error) {
	if d.N() > 0 && other.N() > 0 && d.K() != other.K() {
		return nil, fmt.Errorf("doe: cannot append %d-factor design to %d-factor design", other.K(), d.K())
	}
	runs := make([][]float64, 0, d.N()+other.N())
	runs = append(runs, cloneRuns(d.Runs)...)
	runs = append(runs, cloneRuns(other.Runs)...)
	return &Design{Name: d.Name + "+" + other.Name, Runs: runs}, nil
}

func cloneRuns(runs [][]float64) [][]float64 {
	out := make([][]float64, len(runs))
	for i, r := range runs {
		out[i] = append([]float64(nil), r...)
	}
	return out
}

// Factor maps between coded (−1…+1) and natural units.
type Factor struct {
	Name string
	Min  float64
	Max  float64
	Unit string
}

// Validate checks the range.
func (f Factor) Validate() error {
	if !(f.Max > f.Min) {
		return fmt.Errorf("doe: factor %q has empty range [%g, %g]", f.Name, f.Min, f.Max)
	}
	return nil
}

// Decode converts a coded level to natural units.
func (f Factor) Decode(coded float64) float64 {
	return f.Min + (coded+1)/2*(f.Max-f.Min)
}

// Encode converts a natural value to coded units.
func (f Factor) Encode(natural float64) float64 {
	return 2*(natural-f.Min)/(f.Max-f.Min) - 1
}

// DecodeRun converts one coded run to natural units using factors.
func DecodeRun(factors []Factor, coded []float64) ([]float64, error) {
	if len(factors) != len(coded) {
		return nil, fmt.Errorf("doe: %d factors but %d coded values", len(factors), len(coded))
	}
	out := make([]float64, len(coded))
	for i, f := range factors {
		out[i] = f.Decode(coded[i])
	}
	return out, nil
}

// FullFactorial returns the full factorial design with the given number of
// evenly spaced levels per factor (levels ≥ 2), spanning −1…+1.
func FullFactorial(k, levels int) (*Design, error) {
	if k < 1 {
		return nil, fmt.Errorf("doe: need ≥1 factor, got %d", k)
	}
	if levels < 2 {
		return nil, fmt.Errorf("doe: need ≥2 levels, got %d", levels)
	}
	n := 1
	for i := 0; i < k; i++ {
		n *= levels
		if n > 1<<22 {
			return nil, fmt.Errorf("doe: full factorial %d^%d too large", levels, k)
		}
	}
	lv := make([]float64, levels)
	for i := range lv {
		lv[i] = -1 + 2*float64(i)/float64(levels-1)
	}
	runs := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		rem := i
		for j := 0; j < k; j++ {
			row[j] = lv[rem%levels]
			rem /= levels
		}
		runs[i] = row
	}
	return &Design{Name: fmt.Sprintf("full-%d^%d", levels, k), Runs: runs}, nil
}

// TwoLevelFactorial returns the 2^k corner design.
func TwoLevelFactorial(k int) (*Design, error) {
	d, err := FullFactorial(k, 2)
	if err != nil {
		return nil, err
	}
	d.Name = fmt.Sprintf("2^%d", k)
	return d, nil
}

// CCDKind selects the central composite variant.
type CCDKind int

const (
	// CCC is the circumscribed (rotatable) CCD with α = (2^k)^{1/4}.
	CCC CCDKind = iota
	// CCF is the face-centred CCD with α = 1.
	CCF
	// CCI is the inscribed CCD: a CCC shrunk so all points lie in −1…+1.
	CCI
)

// CentralComposite returns a CCD for k factors with nCenter centre runs:
// the 2^k factorial corners, 2k axial points, and the centres. This is the
// workhorse design for fitting full quadratic response surfaces.
func CentralComposite(k int, kind CCDKind, nCenter int) (*Design, error) {
	if k < 2 {
		return nil, fmt.Errorf("doe: CCD needs ≥2 factors, got %d", k)
	}
	if nCenter < 1 {
		return nil, fmt.Errorf("doe: CCD needs ≥1 centre run, got %d", nCenter)
	}
	corners, err := TwoLevelFactorial(k)
	if err != nil {
		return nil, err
	}
	alpha := math.Pow(float64(int(1)<<uint(k)), 0.25)
	scale := 1.0
	name := "CCC"
	switch kind {
	case CCF:
		alpha = 1
		name = "CCF"
	case CCI:
		scale = 1 / alpha
		name = "CCI"
	}
	runs := make([][]float64, 0, corners.N()+2*k+nCenter)
	for _, r := range corners.Runs {
		row := make([]float64, k)
		for j, v := range r {
			row[j] = v * scale
		}
		runs = append(runs, row)
	}
	for j := 0; j < k; j++ {
		for _, sgn := range []float64{-1, 1} {
			row := make([]float64, k)
			row[j] = sgn * alpha * scale
			runs = append(runs, row)
		}
	}
	for c := 0; c < nCenter; c++ {
		runs = append(runs, make([]float64, k))
	}
	return &Design{Name: fmt.Sprintf("%s(k=%d)", name, k), Runs: runs}, nil
}

// BoxBehnken returns the Box–Behnken design for k ≥ 3 factors: ±1/±1 on
// every factor pair with the rest at 0, plus nCenter centre runs. All
// points lie on the edges of the cube (no corners), making it cheaper than
// a CCD when corner settings are expensive or infeasible.
func BoxBehnken(k, nCenter int) (*Design, error) {
	if k < 3 {
		return nil, fmt.Errorf("doe: Box–Behnken needs ≥3 factors, got %d", k)
	}
	if nCenter < 1 {
		return nil, fmt.Errorf("doe: Box–Behnken needs ≥1 centre run, got %d", nCenter)
	}
	var runs [][]float64
	for i := 0; i < k-1; i++ {
		for j := i + 1; j < k; j++ {
			for _, si := range []float64{-1, 1} {
				for _, sj := range []float64{-1, 1} {
					row := make([]float64, k)
					row[i], row[j] = si, sj
					runs = append(runs, row)
				}
			}
		}
	}
	for c := 0; c < nCenter; c++ {
		runs = append(runs, make([]float64, k))
	}
	return &Design{Name: fmt.Sprintf("BBD(k=%d)", k), Runs: runs}, nil
}

// LatinHypercube returns an n-run maximin Latin hypercube over k factors:
// each factor is stratified into n cells with one sample per cell
// (mid-cell positions), and the pairing is improved by swap hill-climbing
// on the minimum pairwise distance for iters iterations.
func LatinHypercube(k, n int, seed int64, iters int) (*Design, error) {
	if k < 1 || n < 2 {
		return nil, fmt.Errorf("doe: LHS needs ≥1 factor and ≥2 runs, got k=%d n=%d", k, n)
	}
	rng := rand.New(rand.NewSource(seed))
	cols := make([][]int, k)
	for j := range cols {
		cols[j] = rng.Perm(n)
	}
	level := func(cell int) float64 {
		return -1 + 2*(float64(cell)+0.5)/float64(n)
	}
	minDist := func() float64 {
		best := math.Inf(1)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				var d2 float64
				for j := 0; j < k; j++ {
					diff := level(cols[j][a]) - level(cols[j][b])
					d2 += diff * diff
				}
				if d2 < best {
					best = d2
				}
			}
		}
		return best
	}
	if k > 1 { // with one factor any permutation is already optimal
		cur := minDist()
		for it := 0; it < iters; it++ {
			j := rng.Intn(k)
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			cols[j][a], cols[j][b] = cols[j][b], cols[j][a]
			if nd := minDist(); nd >= cur {
				cur = nd
			} else {
				cols[j][a], cols[j][b] = cols[j][b], cols[j][a]
			}
		}
	}
	runs := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for j := 0; j < k; j++ {
			row[j] = level(cols[j][i])
		}
		runs[i] = row
	}
	return &Design{Name: fmt.Sprintf("LHS(n=%d)", n), Runs: runs}, nil
}

// DOptimal selects size runs from the candidate design maximizing the
// determinant of the information matrix XᵀX, where modelRow expands a coded
// run into its model-matrix row (e.g. a full-quadratic basis). Selection is
// by Fedorov exchange from a random start: each exchange's determinant
// ratio is computed from the variance function
//
//	Δ(x_in, x_out) = (1 + d(x_in))·(1 − d(x_out)) + d(x_in, x_out)²
//
// with d(x, y) = xᵀ(XᵀX)⁻¹y, and (XᵀX)⁻¹ maintained by Sherman–Morrison
// rank-one updates — the classical O(p²)-per-candidate algorithm.
func DOptimal(candidates *Design, size int, modelRow func([]float64) []float64, seed int64, maxPasses int) (*Design, error) {
	nc := candidates.N()
	if nc == 0 {
		return nil, fmt.Errorf("doe: empty candidate set")
	}
	p := len(modelRow(candidates.Runs[0]))
	if size < p {
		return nil, fmt.Errorf("doe: size %d below model dimension %d", size, p)
	}
	if size > nc {
		return nil, fmt.Errorf("doe: size %d exceeds candidate count %d", size, nc)
	}
	if maxPasses <= 0 {
		maxPasses = 20
	}
	rows := make([][]float64, nc)
	for i, r := range candidates.Runs {
		rows[i] = modelRow(r)
	}
	rng := rand.New(rand.NewSource(seed))
	sel := rng.Perm(nc)[:size]
	inSel := make([]bool, nc)
	for _, id := range sel {
		inSel[id] = true
	}

	// Information matrix with a small ridge so a degenerate random start
	// still inverts; the ridge is negligible once the exchange converges.
	minv := newRidgeInverse(rows, sel, p, 1e-8)
	if minv == nil {
		return nil, fmt.Errorf("doe: could not invert the starting information matrix")
	}

	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for si := 0; si < size; si++ {
			out := rows[sel[si]]
			dOut := quadForm(minv, out, out)
			bestDelta, bestCand := 1.0+1e-12, -1
			for c := 0; c < nc; c++ {
				if inSel[c] {
					continue
				}
				in := rows[c]
				dIn := quadForm(minv, in, in)
				dCross := quadForm(minv, in, out)
				delta := (1+dIn)*(1-dOut) + dCross*dCross
				if delta > bestDelta {
					bestDelta, bestCand = delta, c
				}
			}
			if bestCand < 0 {
				continue
			}
			// Commit: add new row, remove old row (two rank-one updates).
			shermanMorrison(minv, rows[bestCand], +1)
			shermanMorrison(minv, out, -1)
			inSel[sel[si]] = false
			inSel[bestCand] = true
			sel[si] = bestCand
			improved = true
		}
		if !improved {
			break
		}
	}
	sort.Ints(sel)
	runs := make([][]float64, size)
	for i, id := range sel {
		runs[i] = append([]float64(nil), candidates.Runs[id]...)
	}
	return &Design{Name: fmt.Sprintf("D-opt(n=%d)", size), Runs: runs}, nil
}

// newRidgeInverse returns (XᵀX + ridge·I)⁻¹ for the selected rows as a
// dense p×p matrix (row-major [][]), or nil on failure.
func newRidgeInverse(rows [][]float64, sel []int, p int, ridge float64) [][]float64 {
	m := make([][]float64, p)
	for i := range m {
		m[i] = make([]float64, p)
		m[i][i] = ridge
	}
	for _, id := range sel {
		r := rows[id]
		for a := 0; a < p; a++ {
			if r[a] == 0 {
				continue
			}
			for b := 0; b < p; b++ {
				m[a][b] += r[a] * r[b]
			}
		}
	}
	// Gauss-Jordan inversion (p is small: the model dimension).
	inv := make([][]float64, p)
	for i := range inv {
		inv[i] = make([]float64, p)
		inv[i][i] = 1
	}
	for col := 0; col < p; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < p; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if m[piv][col] == 0 {
			return nil
		}
		m[col], m[piv] = m[piv], m[col]
		inv[col], inv[piv] = inv[piv], inv[col]
		d := m[col][col]
		for j := 0; j < p; j++ {
			m[col][j] /= d
			inv[col][j] /= d
		}
		for r := 0; r < p; r++ {
			if r == col || m[r][col] == 0 {
				continue
			}
			f := m[r][col]
			for j := 0; j < p; j++ {
				m[r][j] -= f * m[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	return inv
}

// quadForm returns xᵀ·M·y for a dense symmetric M.
func quadForm(m [][]float64, x, y []float64) float64 {
	var s float64
	for i := range x {
		if x[i] == 0 {
			continue
		}
		row := m[i]
		var t float64
		for j := range y {
			t += row[j] * y[j]
		}
		s += x[i] * t
	}
	return s
}

// shermanMorrison updates minv ← (M ± xxᵀ)⁻¹ in place given minv = M⁻¹.
func shermanMorrison(minv [][]float64, x []float64, sign float64) {
	p := len(x)
	mx := make([]float64, p)
	for i := 0; i < p; i++ {
		var s float64
		for j := 0; j < p; j++ {
			s += minv[i][j] * x[j]
		}
		mx[i] = s
	}
	var denom float64 = 1
	for i := 0; i < p; i++ {
		denom += sign * x[i] * mx[i]
	}
	f := sign / denom
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			minv[i][j] -= f * mx[i] * mx[j]
		}
	}
}
