// Package stats implements the probability distributions and descriptive
// statistics the RSM machinery needs: normal, Student-t and F distributions
// (CDFs and quantiles) for ANOVA significance tests and
// confidence/prediction intervals, plus summary helpers.
//
// The special functions (log-gamma, regularized incomplete beta) are
// implemented from the classical Lanczos and continued-fraction expansions;
// accuracy is ~1e-10 over the parameter ranges exercised by designed
// experiments (degrees of freedom up to a few thousand).
package stats

import "math"

// LogGamma returns ln Γ(x) for x > 0 (Lanczos approximation, g=7, n=9).
func LogGamma(x float64) float64 {
	if x <= 0 {
		return math.NaN()
	}
	// Coefficients for the Lanczos approximation.
	coef := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - LogGamma(1-x)
	}
	x--
	a := coef[0]
	t := x + 7.5
	for i := 1; i < len(coef); i++ {
		a += coef[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for 0 ≤ x ≤ 1, a, b > 0, using the Lentz continued fraction.
func RegIncBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	case a <= 0 || b <= 0:
		return math.NaN()
	}
	lbeta := LogGamma(a) + LogGamma(b) - LogGamma(a+b)
	front := math.Exp(a*math.Log(x)+b*math.Log(1-x)-lbeta) / a
	// Use the symmetry relation for faster convergence.
	if x > (a+1)/(a+b+2) {
		return 1 - RegIncBeta(b, a, 1-x)
	}
	// Modified Lentz algorithm for the continued fraction.
	const tiny = 1e-30
	f, c, d := 1.0, 1.0, 0.0
	for i := 0; i <= 300; i++ {
		m := i / 2
		var numerator float64
		switch {
		case i == 0:
			numerator = 1
		case i%2 == 0:
			numerator = float64(m) * (b - float64(m)) * x / ((a + 2*float64(m) - 1) * (a + 2*float64(m)))
		default:
			numerator = -(a + float64(m)) * (a + b + float64(m)) * x / ((a + 2*float64(m)) * (a + 2*float64(m) + 1))
		}
		d = 1 + numerator*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		d = 1 / d
		c = 1 + numerator/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		cd := c * d
		f *= cd
		if math.Abs(1-cd) < 1e-12 {
			return front * (f - 1)
		}
	}
	return front * (f - 1) // best effort after max iterations
}

// --- Normal distribution ---

// NormalCDF returns P(X ≤ x) for X ~ N(mu, sigma²).
func NormalCDF(x, mu, sigma float64) float64 {
	return 0.5 * math.Erfc(-(x-mu)/(sigma*math.Sqrt2))
}

// NormalQuantile returns the p-quantile of N(0,1) via the Acklam
// rational approximation refined by one Halley step.
func NormalQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Acklam's approximation.
	a := [...]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [...]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [...]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [...]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	var x float64
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= phigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x, 0, 1) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x -= u / (1 + x*u/2)
	return x
}

// --- Student t distribution ---

// TCDF returns P(T ≤ t) for T ~ Student-t with df degrees of freedom.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	x := df / (df + t*t)
	p := 0.5 * RegIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom, found by bisection on the CDF.
func TQuantile(p, df float64) float64 {
	if df <= 0 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0 // exact by symmetry; bisection would leave rounding residue
	}
	return invertCDF(func(x float64) float64 { return TCDF(x, df) }, p, -1e8, 1e8)
}

// --- F distribution ---

// FCDF returns P(X ≤ f) for X ~ F(d1, d2).
func FCDF(f, d1, d2 float64) float64 {
	if d1 <= 0 || d2 <= 0 {
		return math.NaN()
	}
	if f <= 0 {
		return 0
	}
	x := d1 * f / (d1*f + d2)
	return RegIncBeta(d1/2, d2/2, x)
}

// FPValue returns P(X > f): the right-tail p-value of an observed F
// statistic, as used in ANOVA tables.
func FPValue(f, d1, d2 float64) float64 {
	if f <= 0 {
		return 1
	}
	return 1 - FCDF(f, d1, d2)
}

// invertCDF finds x with cdf(x) = p by bisection over [lo, hi]. The cdf
// must be monotone nondecreasing.
func invertCDF(cdf func(float64) float64, p, lo, hi float64) float64 {
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if cdf(mid) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-12*(1+math.Abs(lo)) {
			break
		}
	}
	return 0.5 * (lo + hi)
}
