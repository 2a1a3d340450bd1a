package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func close(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestLogGammaKnown(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
		{10, math.Log(362880)},
	}
	for _, c := range cases {
		if got := LogGamma(c.x); !close(got, c.want, 1e-10) {
			t.Errorf("LogGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(LogGamma(-1)) {
		t.Error("LogGamma(-1) should be NaN")
	}
}

func TestLogGammaRecurrence(t *testing.T) {
	// Γ(x+1) = x·Γ(x) ⇒ lnΓ(x+1) = ln x + lnΓ(x).
	f := func(u float64) bool {
		x := 0.1 + math.Mod(math.Abs(u), 20)
		return close(LogGamma(x+1), math.Log(x)+LogGamma(x), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	if RegIncBeta(2, 3, 0) != 0 {
		t.Error("I_0 must be 0")
	}
	if RegIncBeta(2, 3, 1) != 1 {
		t.Error("I_1 must be 1")
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); !close(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v, want %v", x, got, x)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got := RegIncBeta(2.5, 4, 0.3) + RegIncBeta(4, 2.5, 0.7); !close(got, 1, 1e-10) {
		t.Errorf("symmetry violated: sum = %v", got)
	}
}

func TestNormalCDFKnown(t *testing.T) {
	if got := NormalCDF(0, 0, 1); !close(got, 0.5, 1e-12) {
		t.Errorf("Φ(0) = %v", got)
	}
	if got := NormalCDF(1.959963984540054, 0, 1); !close(got, 0.975, 1e-9) {
		t.Errorf("Φ(1.96) = %v, want 0.975", got)
	}
	if got := NormalCDF(5, 3, 2); !close(got, NormalCDF(1, 0, 1), 1e-12) {
		t.Error("location/scale handling broken")
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.999} {
		x := NormalQuantile(p)
		if got := NormalCDF(x, 0, 1); !close(got, p, 1e-10) {
			t.Errorf("Φ(Φ⁻¹(%v)) = %v", p, got)
		}
	}
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile at 0/1 must be ∓Inf")
	}
}

func TestTCDFKnown(t *testing.T) {
	// t with 1 df is Cauchy: CDF(1) = 3/4.
	if got := TCDF(1, 1); !close(got, 0.75, 1e-9) {
		t.Errorf("TCDF(1,1) = %v, want 0.75", got)
	}
	if got := TCDF(0, 7); !close(got, 0.5, 1e-12) {
		t.Errorf("TCDF(0,7) = %v, want 0.5", got)
	}
	// Symmetry.
	if got := TCDF(-2, 5) + TCDF(2, 5); !close(got, 1, 1e-10) {
		t.Errorf("t symmetry violated: %v", got)
	}
	// Large df approaches normal.
	if got := TCDF(1.96, 1e6); !close(got, NormalCDF(1.96, 0, 1), 1e-5) {
		t.Errorf("TCDF large-df = %v, want ≈ Φ(1.96)", got)
	}
}

func TestTQuantileKnown(t *testing.T) {
	// Classical table value: t_{0.975, 10} = 2.228.
	if got := TQuantile(0.975, 10); !close(got, 2.228, 5e-4) {
		t.Errorf("t(0.975,10) = %v, want 2.228", got)
	}
	if got := TQuantile(0.5, 3); !close(got, 0, 1e-9) {
		t.Errorf("median of t must be 0, got %v", got)
	}
	for _, p := range []float64{0.05, 0.3, 0.9, 0.99} {
		x := TQuantile(p, 8)
		if got := TCDF(x, 8); !close(got, p, 1e-8) {
			t.Errorf("round trip failed at p=%v: %v", p, got)
		}
	}
}

func TestFCDFKnown(t *testing.T) {
	if got := FCDF(0, 3, 5); got != 0 {
		t.Errorf("FCDF(0) = %v", got)
	}
	// F(1,d2) = T² relation: P(F ≤ f) = P(|T| ≤ √f) = 2·TCDF(√f,d2) − 1.
	f, d2 := 4.0, 9.0
	want := 2*TCDF(math.Sqrt(f), d2) - 1
	if got := FCDF(f, 1, d2); !close(got, want, 1e-9) {
		t.Errorf("FCDF(4,1,9) = %v, want %v", got, want)
	}
}

func TestFPValue(t *testing.T) {
	if got := FPValue(0, 2, 3); got != 1 {
		t.Errorf("p-value at F=0 must be 1, got %v", got)
	}
	p := FPValue(3.708, 3, 10)
	if !close(p, 0.05, 2e-3) {
		t.Errorf("p-value = %v, want ≈0.05", p)
	}
}

func TestMeanVarStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !close(got, 5, 1e-12) {
		t.Errorf("mean = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of an empty slice must be NaN")
	}
}

func TestMinMaxQuantileMedian(t *testing.T) {
	if got := Quantile([]float64{10, 20, 30}, 0); got != 10 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile([]float64{10, 20, 30}, 1); got != 30 {
		t.Errorf("q1 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile must be NaN")
	}
}

func TestRMSAndErrors(t *testing.T) {
	if got := RMS([]float64{3, 4}); !close(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMS = %v", got)
	}
	a := []float64{1, 2, 3}
	b := []float64{1, 2, 5}
	if got := RMSE(a, b); !close(got, 2/math.Sqrt(3), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
	if !math.IsNaN(RMSE(a, []float64{1})) {
		t.Error("length mismatch must give NaN")
	}
}

func TestQuantileAgainstSamples(t *testing.T) {
	// Empirical quantiles of many normal samples should approach the
	// analytic normal quantile.
	rng := rand.New(rand.NewSource(42))
	n := 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		got := Quantile(xs, p)
		want := NormalQuantile(p)
		if !close(got, want, 2e-2) {
			t.Errorf("empirical q(%v) = %v, want %v", p, got, want)
		}
	}
}
