package la

import "math"

// QR holds a Householder QR factorization of an m×n matrix (m ≥ n):
// A = Q·R with Q orthogonal (m×m, stored implicitly) and R upper
// triangular (n×n). It is the backbone of the response-surface
// least-squares fits: solving min‖Ax−b‖₂ via QR avoids forming the
// normal equations and their squared condition number.
type QR struct {
	qr   *Matrix   // Householder vectors below the diagonal, R on/above
	rd   []float64 // diagonal of R
	m, n int
}

// FactorQR computes the Householder QR factorization of a (rows ≥ cols).
func FactorQR(a *Matrix) (*QR, error) {
	if a.rows < a.cols {
		return nil, ErrShape
	}
	m, n := a.rows, a.cols
	qr := a.Clone()
	rd := make([]float64, n)
	for k := 0; k < n; k++ {
		// Norm of column k below the diagonal.
		var nrm float64
		for i := k; i < m; i++ {
			nrm = math.Hypot(nrm, qr.At(i, k))
		}
		if nrm == 0 {
			rd[k] = 0
			continue
		}
		if qr.At(k, k) < 0 {
			nrm = -nrm
		}
		for i := k; i < m; i++ {
			qr.Set(i, k, qr.At(i, k)/nrm)
		}
		qr.Add(k, k, 1)
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			var s float64
			for i := k; i < m; i++ {
				s += qr.At(i, k) * qr.At(i, j)
			}
			s = -s / qr.At(k, k)
			for i := k; i < m; i++ {
				qr.Add(i, j, s*qr.At(i, k))
			}
		}
		rd[k] = -nrm
	}
	return &QR{qr: qr, rd: rd, m: m, n: n}, nil
}

// FullRank reports whether A has full column rank to working precision:
// every diagonal entry of R must exceed a small multiple of the largest one.
func (f *QR) FullRank() bool {
	var mx float64
	for _, d := range f.rd {
		if a := math.Abs(d); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return false
	}
	tol := 1e-12 * float64(f.m) * mx
	for _, d := range f.rd {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// SolveLS returns the least-squares solution x minimizing ‖A·x − b‖₂.
func (f *QR) SolveLS(b []float64) ([]float64, error) {
	if len(b) != f.m {
		return nil, ErrShape
	}
	if !f.FullRank() {
		return nil, ErrSingular
	}
	y := make([]float64, f.m)
	copy(y, b)
	// Apply Qᵀ to b.
	for k := 0; k < f.n; k++ {
		if f.qr.At(k, k) == 0 {
			continue
		}
		var s float64
		for i := k; i < f.m; i++ {
			s += f.qr.At(i, k) * y[i]
		}
		s = -s / f.qr.At(k, k)
		for i := k; i < f.m; i++ {
			y[i] += s * f.qr.At(i, k)
		}
	}
	// Back-substitute R·x = y[:n].
	x := make([]float64, f.n)
	for i := f.n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < f.n; j++ {
			s -= f.qr.At(i, j) * x[j]
		}
		x[i] = s / f.rd[i]
	}
	return x, nil
}

// RInverse returns R⁻¹ (n×n upper triangular). (XᵀX)⁻¹ = R⁻¹·R⁻ᵀ gives the
// coefficient covariance scaling used in RSM significance tests.
func (f *QR) RInverse() (*Matrix, error) {
	if !f.FullRank() {
		return nil, ErrSingular
	}
	n := f.n
	inv := NewMatrix(n, n)
	for col := 0; col < n; col++ {
		// Solve R·x = e_col.
		x := make([]float64, n)
		x[col] = 1
		for i := col; i >= 0; i-- {
			s := x[i]
			for j := i + 1; j <= col; j++ {
				s -= f.qr.At(i, j) * x[j]
			}
			x[i] = s / f.rd[i]
		}
		for i := 0; i <= col; i++ {
			inv.Set(i, col, x[i])
		}
	}
	return inv, nil
}

// XtXInverse returns (AᵀA)⁻¹ = R⁻¹·R⁻ᵀ.
func (f *QR) XtXInverse() (*Matrix, error) {
	ri, err := f.RInverse()
	if err != nil {
		return nil, err
	}
	return ri.Mul(ri.T()), nil
}
