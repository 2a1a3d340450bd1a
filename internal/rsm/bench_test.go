package rsm

import (
	"math/rand"
	"testing"

	"repro/internal/doe"
)

func benchData(b *testing.B, k int) ([][]float64, []float64) {
	b.Helper()
	d, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		v := 1.0
		for j, x := range r {
			v += float64(j+1)*x + 0.3*x*x
		}
		y[i] = v + 0.01*rng.NormFloat64()
	}
	return d.Runs, y
}

// BenchmarkFitQuadratic4 is the cost of fitting one response surface — the
// "fitting" half of the RSM build phase.
func BenchmarkFitQuadratic4(b *testing.B) {
	runs, y := benchData(b, 4)
	m := FullQuadratic(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitModel(m, runs, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredict4 is the cost of one surface evaluation — the unit of
// "practically instant" exploration.
func BenchmarkPredict4(b *testing.B) {
	runs, y := benchData(b, 4)
	fit, err := FitModel(FullQuadratic(4), runs, y)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, -0.2, 0.8, -0.5}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += fit.Predict(x)
	}
	_ = sink
}

func BenchmarkCanonical4(b *testing.B) {
	runs, y := benchData(b, 4)
	fit, err := FitModel(FullQuadratic(4), runs, y)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fit.Canonical(); err != nil {
			b.Fatal(err)
		}
	}
}
