package doe

import (
	"math"
	"testing"
)

func TestCandidateLatticeLevels(t *testing.T) {
	d, err := CandidateLattice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 25 || d.K() != 2 {
		t.Fatalf("lattice 5^2: got n=%d k=%d", d.N(), d.K())
	}
	// Five levels must land exactly on −1, −0.5, 0, 0.5, 1: the lattice
	// steps a quarter of the coded range per factor.
	want := map[float64]bool{-1: true, -0.5: true, 0: true, 0.5: true, 1: true}
	for _, r := range d.Runs {
		for _, v := range r {
			if !want[v] {
				t.Fatalf("lattice level %v not on the 5-level grid", v)
			}
		}
	}
	if _, err := CandidateLattice(0, 5); err == nil {
		t.Fatal("expected error for k=0")
	}
	if _, err := CandidateLattice(2, 1); err == nil {
		t.Fatal("expected error for 1 level")
	}
}

// detXtX computes det(XᵀX) for the model-expanded design by Gaussian
// elimination — small p, test-only.
func detXtX(d *Design, modelRow func([]float64) []float64) float64 {
	p := len(modelRow(d.Runs[0]))
	m := make([][]float64, p)
	for i := range m {
		m[i] = make([]float64, p)
	}
	for _, r := range d.Runs {
		row := modelRow(r)
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				m[a][b] += row[a] * row[b]
			}
		}
	}
	det := 1.0
	for col := 0; col < p; col++ {
		piv := col
		for r := col + 1; r < p; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if m[piv][col] == 0 {
			return 0
		}
		if piv != col {
			m[col], m[piv] = m[piv], m[col]
			det = -det
		}
		det *= m[col][col]
		for r := col + 1; r < p; r++ {
			f := m[r][col] / m[col][col]
			for j := col; j < p; j++ {
				m[r][j] -= f * m[col][j]
			}
		}
	}
	return det
}

func TestAugmentDOptimalGrowsInformation(t *testing.T) {
	// Base: 2^2 corners + centre — 5 runs, one short of identifying the
	// 6-term quadratic (det XᵀX = 0).
	base, err := TwoLevelFactorial(2)
	if err != nil {
		t.Fatal(err)
	}
	base, err = base.Append(&Design{Name: "c", Runs: [][]float64{{0, 0}}})
	if err != nil {
		t.Fatal(err)
	}
	if det := detXtX(base, quadRow); det != 0 {
		t.Fatalf("base should be singular for the quadratic, det=%g", det)
	}
	cands, err := CandidateLattice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := AugmentDOptimal(base, cands, 4, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aug.N() != base.N()+4 {
		t.Fatalf("augmented n=%d, want %d", aug.N(), base.N()+4)
	}
	// Base runs are preserved verbatim as a prefix.
	for i, r := range base.Runs {
		for j, v := range r {
			if aug.Runs[i][j] != v {
				t.Fatalf("base run %d mutated: %v → %v", i, r, aug.Runs[i])
			}
		}
	}
	// Added runs come from the candidate lattice and identify the model.
	if det := detXtX(aug, quadRow); det <= 0 {
		t.Fatalf("augmented design still singular, det=%g", det)
	}
	// No added run duplicates a base run or another added run (the lattice
	// has plenty of distinct points).
	seen := map[string]bool{}
	for _, r := range aug.Runs {
		k := runKey(r)
		if seen[k] {
			t.Fatalf("duplicate run %v in augmented design", r)
		}
		seen[k] = true
	}
}

func TestAugmentDOptimalReducesWorstVariance(t *testing.T) {
	base, err := CentralComposite(2, CCF, 2)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := CandidateLattice(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	varAt := func(d *Design, x []float64) float64 {
		rows := make([][]float64, d.N())
		sel := make([]int, d.N())
		for i, r := range d.Runs {
			rows[i] = quadRow(r)
			sel[i] = i
		}
		minv := newRidgeInverse(rows, sel, len(quadRow(x)), 1e-12)
		if minv == nil {
			t.Fatal("singular design")
		}
		row := quadRow(x)
		return quadForm(minv, row, row)
	}
	// Worst-variance candidate before augmentation.
	worst, worstV := []float64(nil), math.Inf(-1)
	for _, c := range cands.Runs {
		if v := varAt(base, c); v > worstV {
			worst, worstV = c, v
		}
	}
	aug, err := AugmentDOptimal(base, cands, 3, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if after := varAt(aug, worst); after >= worstV {
		t.Fatalf("augmentation did not reduce worst prediction variance: %g → %g", worstV, after)
	}
}

func TestAugmentDOptimalDeterministic(t *testing.T) {
	base, _ := CentralComposite(2, CCF, 1)
	cands, _ := CandidateLattice(2, 5)
	a, err := AugmentDOptimal(base, cands, 5, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AugmentDOptimal(base, cands, 5, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Runs {
		for j := range a.Runs[i] {
			if a.Runs[i][j] != b.Runs[i][j] {
				t.Fatalf("augmentation not deterministic at run %d", i)
			}
		}
	}
}

func TestAugmentDOptimalExhaustedPoolReplicates(t *testing.T) {
	base, err := TwoLevelFactorial(2)
	if err != nil {
		t.Fatal(err)
	}
	cands, _ := TwoLevelFactorial(2) // all 4 candidates already in base
	aug, err := AugmentDOptimal(base, cands, 3, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if aug.N() != 7 {
		t.Fatalf("exhausted pool: got %d runs, want 7", aug.N())
	}
}

func TestAugmentDOptimalFromEmptyBase(t *testing.T) {
	cands, _ := CandidateLattice(2, 3)
	d, err := AugmentDOptimal(&Design{}, cands, 6, quadRow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 6 {
		t.Fatalf("got %d runs, want 6", d.N())
	}
	if det := detXtX(d, quadRow); det <= 0 {
		t.Fatalf("greedy-from-empty design singular, det=%g", det)
	}
}

func TestAugmentDOptimalValidation(t *testing.T) {
	cands, _ := CandidateLattice(2, 3)
	if _, err := AugmentDOptimal(&Design{}, cands, 0, quadRow, 0); err == nil {
		t.Fatal("expected error for add=0")
	}
	if _, err := AugmentDOptimal(&Design{}, &Design{}, 1, quadRow, 0); err == nil {
		t.Fatal("expected error for empty candidates")
	}
	base3, _ := TwoLevelFactorial(3)
	if _, err := AugmentDOptimal(base3, cands, 1, quadRow, 0); err == nil {
		t.Fatal("expected error for factor-count mismatch")
	}
}
