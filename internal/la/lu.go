package la

import "math"

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix // packed L (unit diagonal, below) and U (on/above diagonal)
	piv  []int   // row permutation
	sign float64 // determinant sign from pivoting
}

// FactorLU computes the LU factorization of the square matrix a with partial
// pivoting. It returns ErrSingular if a pivot is exactly zero; near-singular
// matrices factor successfully but solves may amplify error (check
// ConditionEstimate if that matters).
func FactorLU(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	f := &LU{}
	if err := f.Refactor(a); err != nil {
		return nil, err
	}
	return f, nil
}

// Refactor recomputes the factorization of a into f, reusing f's packed
// matrix and pivot buffers when the shape matches. It is the
// allocation-free path for callers that factor same-sized systems
// repeatedly (the matrix exponential inside every ZOH rebuild).
func (f *LU) Refactor(a *Matrix) error {
	if a.rows != a.cols {
		return ErrShape
	}
	n := a.rows
	if f.lu == nil || f.lu.rows != n || f.lu.cols != n {
		f.lu = NewMatrix(n, n)
		f.piv = make([]int, n)
	}
	lu := f.lu
	copy(lu.data, a.data)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	sign := 1.0
	for k := 0; k < n; k++ {
		// Find pivot.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return ErrSingular
		}
		if p != k {
			swapRows(lu, p, k)
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu.Add(i, j, -m*lu.At(k, j))
			}
		}
	}
	f.sign = sign
	return nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Solve solves A·x = b for a single right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveInto(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto solves A·x = b into the caller-provided x (len n). x must not
// alias b.
func (f *LU) SolveInto(x, b []float64) error {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		return ErrShape
	}
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		var s float64
		row := f.lu.data[i*n : i*n+i]
		for j, l := range row {
			s += l * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		var s float64
		row := f.lu.data[i*n+i+1 : (i+1)*n]
		for j, u := range row {
			s += u * x[i+1+j]
		}
		d := f.lu.At(i, i)
		if d == 0 {
			return ErrSingular
		}
		x[i] = (x[i] - s) / d
	}
	return nil
}

// SolveMatrix solves A·X = B column by column.
func (f *LU) SolveMatrix(b *Matrix) (*Matrix, error) {
	out := NewMatrix(b.rows, b.cols)
	n := f.lu.rows
	if err := f.SolveMatrixInto(out, b, make([]float64, 2*n)); err != nil {
		return nil, err
	}
	return out, nil
}

// SolveMatrixInto solves A·X = B column by column into the caller-provided
// dst. scratch must hold at least 2n floats (one column of B plus one
// solution vector); pass the same slice across calls to solve without
// allocating.
func (f *LU) SolveMatrixInto(dst, b *Matrix, scratch []float64) error {
	n := f.lu.rows
	if b.rows != n || dst.rows != b.rows || dst.cols != b.cols || len(scratch) < 2*n {
		return ErrShape
	}
	col, x := scratch[:n], scratch[n:2*n]
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.data[i*b.cols+j]
		}
		if err := f.SolveInto(x, col); err != nil {
			return err
		}
		for i, v := range x {
			dst.data[i*dst.cols+j] = v
		}
	}
	return nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := f.sign
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Inverse returns A⁻¹ computed from the factorization.
func (f *LU) Inverse() (*Matrix, error) {
	return f.SolveMatrix(Identity(f.lu.rows))
}

// Solve solves the square system a·x = b directly (convenience wrapper
// around FactorLU).
func Solve(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// Inverse returns the inverse of a square matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Inverse()
}

func matrixNorm1(a *Matrix) float64 {
	var mx float64
	for j := 0; j < a.cols; j++ {
		var s float64
		for i := 0; i < a.rows; i++ {
			s += math.Abs(a.At(i, j))
		}
		if s > mx {
			mx = s
		}
	}
	return mx
}
