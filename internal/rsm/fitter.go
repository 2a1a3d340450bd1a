package rsm

import (
	"fmt"
	"math"
)

// fitterRidge is the diagonal loading on the incrementally maintained
// normal equations. It exists only so the Cholesky factor is positive
// definite from the first appended row; with coded-unit model rows (entries
// O(1)) and any identifiable design it perturbs coefficients by ~1e-12
// relative — far inside the 1e-9 equivalence bound the adaptive loop
// requires, and irrelevant to the final model, which FitModel refits from
// scratch.
const fitterRidge = 1e-12

// Fitter is an incrementally updatable least-squares fit: the sequential
// (adaptive-build) counterpart of FitModel. It maintains the Cholesky
// factorization L·Lᵀ = XᵀX + ridge·I and the vector Xᵀy under appended
// rows, so after each new simulated point the coefficients are one rank-one
// Cholesky update plus two triangular solves — O(p²) instead of the
// O(n·p²) batch refactorization.
//
// Snapshot returns the current incremental fit with the diagnostics the
// adaptive stopping rule consumes (R², adjusted R², PRESS, lack-of-fit
// inputs). The final model of an adaptive build does not come from the
// Fitter: the build refits its accumulated rows with FitModel, so that model
// is bit-identical to a batch fit of the same data — the equivalence the
// fixed-strategy regression tests pin down.
type Fitter struct {
	model Model
	p     int

	l   [][]float64 // lower-triangular Cholesky factor of XᵀX + ridge·I
	xty []float64

	rows [][]float64 // expanded model rows, retained for diagnostics
	runs [][]float64 // coded runs, retained for lack-of-fit
	ys   []float64
}

// NewFitter returns an empty incremental fitter for the model.
func NewFitter(m Model) (*Fitter, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	p := m.P()
	f := &Fitter{model: m, p: p, xty: make([]float64, p)}
	f.l = make([][]float64, p)
	for i := range f.l {
		f.l[i] = make([]float64, i+1)
		f.l[i][i] = math.Sqrt(fitterRidge)
	}
	return f, nil
}

// N returns the number of appended observations.
func (f *Fitter) N() int { return len(f.ys) }

// Runs returns the appended coded runs (shared backing array; do not
// mutate).
func (f *Fitter) Runs() [][]float64 { return f.runs }

// Ys returns the appended responses (shared backing array; do not mutate).
func (f *Fitter) Ys() []float64 { return f.ys }

// Append adds one observation: a coded run and its response. Cost is O(p²).
func (f *Fitter) Append(run []float64, y float64) error {
	if len(run) != f.model.K {
		return fmt.Errorf("rsm: run has %d factors, model wants %d", len(run), f.model.K)
	}
	if math.IsNaN(y) || math.IsInf(y, 0) {
		return fmt.Errorf("rsm: non-finite response %v", y)
	}
	row := f.model.Row(run)
	// Rank-one Cholesky update: L·Lᵀ ← L·Lᵀ + row·rowᵀ. The classical
	// Givens-style sweep mutates its work vector, so operate on a copy.
	w := append([]float64(nil), row...)
	for j := 0; j < f.p; j++ {
		ljj := f.l[j][j]
		r := math.Hypot(ljj, w[j])
		c, s := r/ljj, w[j]/ljj
		f.l[j][j] = r
		for i := j + 1; i < f.p; i++ {
			f.l[i][j] = (f.l[i][j] + s*w[i]) / c
			w[i] = c*w[i] - s*f.l[i][j]
		}
	}
	for j := 0; j < f.p; j++ {
		f.xty[j] += row[j] * y
	}
	f.rows = append(f.rows, row)
	f.runs = append(f.runs, append([]float64(nil), run...))
	f.ys = append(f.ys, y)
	return nil
}

// Coef solves the current normal equations from the updated Cholesky factor
// in O(p²). An error is returned while the design cannot identify the model
// (n < p).
func (f *Fitter) Coef() ([]float64, error) {
	if f.N() < f.p {
		return nil, fmt.Errorf("rsm: %d runs cannot identify %d coefficients", f.N(), f.p)
	}
	// Forward substitution: L·z = Xᵀy.
	z := make([]float64, f.p)
	for i := 0; i < f.p; i++ {
		s := f.xty[i]
		for j := 0; j < i; j++ {
			s -= f.l[i][j] * z[j]
		}
		z[i] = s / f.l[i][i]
	}
	// Back substitution: Lᵀ·β = z.
	beta := make([]float64, f.p)
	for i := f.p - 1; i >= 0; i-- {
		s := z[i]
		for j := i + 1; j < f.p; j++ {
			s -= f.l[j][i] * beta[j]
		}
		beta[i] = s / f.l[i][i]
	}
	return beta, nil
}

// leverage returns xᵀ(XᵀX)⁻¹x = ‖L⁻¹x‖² via one forward substitution.
func (f *Fitter) leverage(row []float64) float64 {
	z := make([]float64, f.p)
	var h float64
	for i := 0; i < f.p; i++ {
		s := row[i]
		for j := 0; j < i; j++ {
			s -= f.l[i][j] * z[j]
		}
		z[i] = s / f.l[i][i]
		h += z[i] * z[i]
	}
	return h
}

// Snapshot returns the incremental fit as a *Fit carrying the diagnostics
// the sequential stopping rule needs: coefficients, residuals, R²,
// adjusted R², RMSE, leverage, PRESS and R²-pred, plus the sums of squares
// LackOfFitTest consumes. The inference-only fields (CoefSE, confidence
// intervals) are left zero — use FitModel when those matter.
// Cost is O(n·p²) dominated by the per-row leverage solves; the coefficient
// refit itself is O(p²).
func (f *Fitter) Snapshot() (*Fit, error) {
	coef, err := f.Coef()
	if err != nil {
		return nil, err
	}
	n := f.N()
	out := &Fit{Model: f.model, Coef: coef, N: n}
	var mean float64
	for _, y := range f.ys {
		mean += y
	}
	mean /= float64(n)
	out.Residuals = make([]float64, n)
	for i, row := range f.rows {
		e := f.ys[i] - dot(row, coef)
		out.Residuals[i] = e
		out.ResidualSS += e * e
		d := f.ys[i] - mean
		out.TotalSS += d * d
	}
	out.RegressionSS = out.TotalSS - out.ResidualSS
	if out.TotalSS > 0 {
		out.R2 = 1 - out.ResidualSS/out.TotalSS
	} else {
		out.R2 = 1
	}
	dofResid := n - f.p
	if dofResid > 0 {
		out.Sigma2 = out.ResidualSS / float64(dofResid)
		out.RMSE = math.Sqrt(out.Sigma2)
		if out.TotalSS > 0 {
			out.AdjR2 = 1 - (out.ResidualSS/float64(dofResid))/(out.TotalSS/float64(n-1))
		} else {
			out.AdjR2 = 1
		}
	} else {
		out.AdjR2 = out.R2
	}
	out.Leverage = make([]float64, n)
	for i, row := range f.rows {
		h := f.leverage(row)
		out.Leverage[i] = h
		denom := 1 - h
		if denom < 1e-12 {
			denom = 1e-12
		}
		r := out.Residuals[i] / denom
		out.PRESS += r * r
	}
	if out.TotalSS > 0 {
		out.R2Pred = 1 - out.PRESS/out.TotalSS
	} else {
		out.R2Pred = 1
	}
	return out, nil
}
