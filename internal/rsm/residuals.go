package rsm

import "math"

// StudentizedResiduals returns the externally studentized (deleted)
// residuals: each residual is scaled by the error estimate from a fit
// WITHOUT that run, via the standard leave-one-out identity
//
//	s²_(i) = ((n−p)·σ² − e_i²/(1−h_i)) / (n−p−1)
//
// Unlike residuals scaled by the pooled σ, a gross outlier cannot mask
// itself by inflating that σ.
func (f *Fit) StudentizedResiduals() []float64 {
	n, p := f.N, f.Model.P()
	out := make([]float64, len(f.Residuals))
	dof := float64(n - p)
	if dof <= 1 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	for i, e := range f.Residuals {
		h := math.Min(f.Leverage[i], 1-1e-12)
		s2del := (dof*f.Sigma2 - e*e/(1-h)) / (dof - 1)
		if s2del <= 0 {
			// The deleted fit is exact: this run alone carries all error.
			out[i] = math.Copysign(math.Inf(1), e)
			continue
		}
		out[i] = e / math.Sqrt(s2del*(1-h))
	}
	return out
}

// OutlierRuns returns the indices of runs whose externally studentized
// residual exceeds the threshold (3 is conventional).
func (f *Fit) OutlierRuns(threshold float64) []int {
	if threshold <= 0 {
		threshold = 3
	}
	var out []int
	for i, r := range f.StudentizedResiduals() {
		if math.Abs(r) > threshold {
			out = append(out, i)
		}
	}
	return out
}
