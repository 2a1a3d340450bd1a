package la

import (
	"math/rand"
	"testing"
)

func benchMatrix(n int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
		m.Add(i, i, float64(n))
	}
	return m
}

func BenchmarkLUSolve16(b *testing.B) {
	a := benchMatrix(16, 1)
	rhs := make([]float64, 16)
	for i := range rhs {
		rhs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQRLeastSquares64x15(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix(64, 15)
	rhs := make([]float64, 64)
	for i := 0; i < 64; i++ {
		for j := 0; j < 15; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
		rhs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := FactorQR(a)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.SolveLS(rhs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEigenSym8(b *testing.B) {
	a := benchMatrix(8, 3)
	sym := a.AddM(a.T())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := EigenSym(sym, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpm5(b *testing.B) {
	a := benchMatrix(5, 4).Scale(0.01)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Expm(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiscretizeZOH3x2(b *testing.B) {
	a := NewMatrixFrom(3, 3, []float64{0, 1, 0, -1.6e3 / 0.02, -3, -210, 0, 4200, -5.2e6})
	bm := NewMatrixFrom(3, 2, []float64{0, 0, -1, 0, 0, 0})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DiscretizeZOH(a, bm, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExpmWorkspace5 is the reusable-workspace exponential — the path
// the simulation engine's ZOH rebuild actually takes. Compare against
// BenchmarkExpm5 (the one-shot wrapper) to see the allocation overhead the
// workspace removes.
func BenchmarkExpmWorkspace5(b *testing.B) {
	a := benchMatrix(5, 4).Scale(0.01)
	ws := NewExpmWorkspace(5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.Compute(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZOHWorkspace3x2(b *testing.B) {
	a := NewMatrixFrom(3, 3, []float64{0, 1, 0, -1.6e3 / 0.02, -3, -210, 0, 4200, -5.2e6})
	bm := NewMatrixFrom(3, 2, []float64{0, 0, -1, 0, 0, 0})
	ws := NewZOHWorkspace(3, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.Discretize(a, bm, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}
