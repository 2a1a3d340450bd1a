package rsm

import (
	"fmt"

	"repro/internal/la"
)

// StationaryKind classifies the stationary point of a quadratic surface.
type StationaryKind int

const (
	// Maximum: all eigenvalues of B are negative.
	Maximum StationaryKind = iota
	// Minimum: all eigenvalues of B are positive.
	Minimum
	// Saddle: mixed signs.
	Saddle
)

// String names the stationary kind.
func (k StationaryKind) String() string {
	switch k {
	case Maximum:
		return "maximum"
	case Minimum:
		return "minimum"
	case Saddle:
		return "saddle"
	}
	return "unknown"
}

// Canonical is the canonical analysis of a fitted full-quadratic surface
// ŷ = b₀ + bᵀx + xᵀBx: the stationary point x_s = −½B⁻¹b, its predicted
// response, the eigenvalues of B (surface curvatures along the principal
// axes) and the resulting classification.
type Canonical struct {
	Stationary []float64 // coded coordinates of the stationary point
	Value      float64   // predicted response there
	Eigen      []float64 // eigenvalues of B, ascending
	Axes       *la.Matrix
	Kind       StationaryKind
	InRegion   bool // stationary point inside the coded cube −1…+1
}

// Canonical performs canonical analysis. The fitted model must contain the
// intercept, all linear terms and all pure-quadratic terms (interaction
// terms optional); otherwise an error is returned.
func (f *Fit) Canonical() (*Canonical, error) {
	k := f.Model.K
	b := make([]float64, k)  // linear coefficients
	bm := la.NewMatrix(k, k) // quadratic coefficient matrix B
	seenLin := make([]bool, k)
	seenSq := make([]bool, k)
	for i, t := range f.Model.Terms {
		switch t.Degree() {
		case 0:
			// intercept
		case 1:
			for j, p := range t.Powers {
				if p == 1 {
					b[j] = f.Coef[i]
					seenLin[j] = true
				}
			}
		case 2:
			// Either a pure square or a two-factor interaction.
			first, second := -1, -1
			for j, p := range t.Powers {
				switch p {
				case 2:
					first, second = j, j
				case 1:
					if first < 0 {
						first = j
					} else {
						second = j
					}
				}
			}
			if first == second {
				bm.Set(first, first, f.Coef[i])
				seenSq[first] = true
			} else {
				bm.Set(first, second, f.Coef[i]/2)
				bm.Set(second, first, f.Coef[i]/2)
			}
		default:
			return nil, fmt.Errorf("rsm: canonical analysis needs a quadratic model; found degree-%d term", t.Degree())
		}
	}
	for j := 0; j < k; j++ {
		if !seenLin[j] || !seenSq[j] {
			return nil, fmt.Errorf("rsm: canonical analysis needs linear and squared terms for every factor (factor %d missing)", j)
		}
	}
	// Stationary point: ∇ŷ = b + 2Bx = 0 → x_s = −½·B⁻¹b.
	half := make([]float64, k)
	for i := range half {
		half[i] = -0.5 * b[i]
	}
	xs, err := la.Solve(bm, half)
	if err != nil {
		return nil, fmt.Errorf("rsm: quadratic part singular (ridge system): %w", err)
	}
	vals, vecs, err := la.EigenSym(bm, 0)
	if err != nil {
		return nil, err
	}
	kind := Saddle
	switch {
	case vals[len(vals)-1] < 0:
		kind = Maximum
	case vals[0] > 0:
		kind = Minimum
	}
	in := true
	for _, v := range xs {
		if v < -1 || v > 1 {
			in = false
			break
		}
	}
	return &Canonical{
		Stationary: xs,
		Value:      f.Predict(xs),
		Eigen:      vals,
		Axes:       vecs,
		Kind:       kind,
		InRegion:   in,
	}, nil
}
