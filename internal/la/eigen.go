package la

import (
	"math"
	"sort"
)

// EigenSym computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi rotation method: a = V·diag(values)·Vᵀ. Eigenvalues are
// returned in ascending order with matching eigenvector columns in V.
//
// This powers the canonical analysis of fitted quadratic response surfaces:
// the signs of the eigenvalues of the quadratic-coefficient matrix B
// classify the stationary point (maximum / minimum / saddle), and the
// eigenvectors give the principal axes of the surface.
func EigenSym(a *Matrix, tol float64) (values []float64, vectors *Matrix, err error) {
	if a.rows != a.cols {
		return nil, nil, ErrShape
	}
	if !a.IsSymmetric(1e-9 * (1 + a.MaxAbs())) {
		return nil, nil, ErrShape
	}
	if tol <= 0 {
		tol = 1e-12
	}
	n := a.rows
	w := a.Clone()
	v := Identity(n)

	off := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += 2 * w.At(i, j) * w.At(i, j)
			}
		}
		return math.Sqrt(s)
	}

	scale := w.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps && off() > tol*scale; sweep++ {
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) <= tol*scale/float64(n*n) {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c
				rotate(w, v, p, q, c, s)
			}
		}
	}

	values = make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = w.At(i, i)
	}
	// Sort ascending, permuting eigenvector columns accordingly.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return values[idx[i]] < values[idx[j]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewMatrix(n, n)
	for k, id := range idx {
		sortedVals[k] = values[id]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, k, v.At(i, id))
		}
	}
	return sortedVals, sortedVecs, nil
}

// rotate applies the Jacobi rotation J(p,q,θ) to w (two-sided) and
// accumulates it into v (one-sided).
func rotate(w, v *Matrix, p, q int, c, s float64) {
	n := w.rows
	for i := 0; i < n; i++ {
		wip, wiq := w.At(i, p), w.At(i, q)
		w.Set(i, p, c*wip-s*wiq)
		w.Set(i, q, s*wip+c*wiq)
	}
	for j := 0; j < n; j++ {
		wpj, wqj := w.At(p, j), w.At(q, j)
		w.Set(p, j, c*wpj-s*wqj)
		w.Set(q, j, s*wpj+c*wqj)
	}
	for i := 0; i < n; i++ {
		vip, viq := v.At(i, p), v.At(i, q)
		v.Set(i, p, c*vip-s*viq)
		v.Set(i, q, s*vip+c*viq)
	}
}
