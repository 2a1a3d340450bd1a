package la

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSquare(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	// Diagonal dominance keeps it comfortably nonsingular.
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n)+1)
	}
	return a
}

func randomSPD(rng *rand.Rand, n int) *Matrix {
	b := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.Set(i, j, rng.NormFloat64())
		}
	}
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, 0.5)
	}
	return a
}

func TestLUSolveKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 3})
	x, err := Solve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 1, 1e-12) || !almostEq(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := randomSquare(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := a.MulVec(want)
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if !almostEq(x[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLUSingular(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := FactorLU(a); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestLUDet(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{
		6, 1, 1,
		4, -2, 5,
		2, 8, 7,
	})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -306, 1e-9) {
		t.Fatalf("det = %v, want -306", f.Det())
	}
}

func TestLUInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomSquare(rng, 5)
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := a.Mul(inv)
	if prod.SubM(Identity(5)).MaxAbs() > 1e-9 {
		t.Fatalf("A·A⁻¹ deviates from I by %v", prod.SubM(Identity(5)).MaxAbs())
	}
}

func TestLUSolveMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomSquare(rng, 4)
	xWant := NewMatrix(4, 2)
	for i := 0; i < 4; i++ {
		for j := 0; j < 2; j++ {
			xWant.Set(i, j, rng.NormFloat64())
		}
	}
	b := a.Mul(xWant)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.SolveMatrix(b)
	if err != nil {
		t.Fatal(err)
	}
	if x.SubM(xWant).MaxAbs() > 1e-9 {
		t.Fatal("SolveMatrix inaccurate")
	}
}

func TestQRLeastSquaresExactFit(t *testing.T) {
	// Overdetermined but consistent: fit y = 2 + 3x with 5 exact points.
	xs := []float64{0, 1, 2, 3, 4}
	a := NewMatrix(5, 2)
	b := make([]float64, 5)
	for i, x := range xs {
		a.Set(i, 0, 1)
		a.Set(i, 1, x)
		b[i] = 2 + 3*x
	}
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := f.SolveLS(b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c[0], 2, 1e-10) || !almostEq(c[1], 3, 1e-10) {
		t.Fatalf("coef = %v, want [2 3]", c)
	}
}

func TestQRNormalEquationsProperty(t *testing.T) {
	// The least-squares solution must satisfy Aᵀ(A·x − b) = 0.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 4 + rng.Intn(8)
		n := 1 + rng.Intn(3)
		a := NewMatrix(m, n)
		b := make([]float64, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		f, err := FactorQR(a)
		if err != nil {
			return true
		}
		x, err := f.SolveLS(b)
		if err != nil {
			return true // rank-deficient random draw: acceptable to refuse
		}
		r := a.MulVec(x)
		for i := range r {
			r[i] -= b[i]
		}
		g := a.T().MulVec(r)
		for _, v := range g {
			if math.Abs(v) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQRUnderdetermined(t *testing.T) {
	if _, err := FactorQR(NewMatrix(2, 3)); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}

func TestQRRankDeficient(t *testing.T) {
	a := NewMatrixFrom(3, 2, []float64{1, 2, 2, 4, 3, 6})
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	if f.FullRank() {
		t.Fatal("rank-deficient matrix reported full rank")
	}
	if _, err := f.SolveLS([]float64{1, 2, 3}); err != ErrSingular {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRXtXInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewMatrix(8, 3)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	f, err := FactorQR(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.XtXInverse()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Inverse(a.T().Mul(a))
	if err != nil {
		t.Fatal(err)
	}
	if got.SubM(want).MaxAbs() > 1e-8 {
		t.Fatal("XtXInverse disagrees with direct inverse")
	}
}

func TestEigenSymKnown(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{2, 1, 1, 2}) // eigenvalues 1, 3
	vals, vecs, err := EigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(vals[0], 1, 1e-10) || !almostEq(vals[1], 3, 1e-10) {
		t.Fatalf("eigenvalues = %v, want [1 3]", vals)
	}
	// Check A·v = λ·v for each pair.
	for k := 0; k < 2; k++ {
		v := vecs.Col(k)
		av := a.MulVec(v)
		for i := range v {
			if !almostEq(av[i], vals[k]*v[i], 1e-9) {
				t.Fatalf("A·v != λ·v for pair %d", k)
			}
		}
	}
}

func TestEigenSymReconstructionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := randomSPD(rng, n)
		vals, vecs, err := EigenSym(a, 0)
		if err != nil {
			return false
		}
		// Rebuild V·D·Vᵀ.
		d := NewMatrix(n, n)
		for i, v := range vals {
			d.Set(i, i, v)
		}
		rec := vecs.Mul(d).Mul(vecs.T())
		return rec.SubM(a).MaxAbs() < 1e-7*(1+a.MaxAbs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestEigenSymSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSPD(rng, 7)
	vals, _, err := EigenSym(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("eigenvalues not ascending: %v", vals)
		}
	}
}

func TestEigenSymRejectsAsymmetric(t *testing.T) {
	a := NewMatrixFrom(2, 2, []float64{1, 2, 3, 4})
	if _, _, err := EigenSym(a, 0); err != ErrShape {
		t.Fatalf("err = %v, want ErrShape", err)
	}
}
