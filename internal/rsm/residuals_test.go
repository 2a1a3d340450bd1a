package rsm

import (
	"math/rand"
	"testing"

	"repro/internal/doe"
)

func TestOutlierRunsFlagsCorruptedRun(t *testing.T) {
	d, err := doe.CentralComposite(2, doe.CCF, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	y := make([]float64, d.N())
	for i, r := range d.Runs {
		y[i] = 1 + r[0] + r[1] + 0.1*rng.NormFloat64()
	}
	// Corrupt one run hard (a "diverged simulation").
	y[3] += 25
	fit, err := FitModel(FullQuadratic(2), d.Runs, y)
	if err != nil {
		t.Fatal(err)
	}
	out := fit.OutlierRuns(3)
	found := false
	for _, i := range out {
		if i == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted run not flagged: outliers = %v, studentized residuals = %v", out, fit.StudentizedResiduals())
	}
}
