package doe

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFactorCoding(t *testing.T) {
	f := Factor{Name: "period", Min: 1, Max: 60}
	if got := f.Decode(-1); got != 1 {
		t.Fatalf("Decode(-1) = %v", got)
	}
	if got := f.Decode(1); got != 60 {
		t.Fatalf("Decode(1) = %v", got)
	}
	if got := f.Decode(0); math.Abs(got-30.5) > 1e-12 {
		t.Fatalf("Decode(0) = %v", got)
	}
	if got := f.Encode(30.5); math.Abs(got) > 1e-12 {
		t.Fatalf("Encode(30.5) = %v", got)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Factor{Min: 1, Max: 1}).Validate(); err == nil {
		t.Fatal("empty range must be rejected")
	}
}

func TestFactorRoundTripProperty(t *testing.T) {
	f := Factor{Name: "x", Min: -3, Max: 7}
	prop := func(v float64) bool {
		v = math.Mod(v, 100)
		return math.Abs(f.Encode(f.Decode(v))-v) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRun(t *testing.T) {
	fs := []Factor{{Name: "a", Min: 0, Max: 10}, {Name: "b", Min: -1, Max: 1}}
	nat, err := DecodeRun(fs, []float64{-1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if nat[0] != 0 || nat[1] != 1 {
		t.Fatalf("decoded = %v", nat)
	}
	if _, err := DecodeRun(fs, []float64{0}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestFullFactorial(t *testing.T) {
	d, err := FullFactorial(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 27 || d.K() != 3 {
		t.Fatalf("3^3 design: n=%d k=%d", d.N(), d.K())
	}
	// Every run unique.
	seen := map[[3]float64]bool{}
	for _, r := range d.Runs {
		key := [3]float64{r[0], r[1], r[2]}
		if seen[key] {
			t.Fatalf("duplicate run %v", r)
		}
		seen[key] = true
	}
	if _, err := FullFactorial(0, 2); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := FullFactorial(2, 1); err == nil {
		t.Fatal("1 level must error")
	}
	if _, err := FullFactorial(30, 3); err == nil {
		t.Fatal("oversized design must error")
	}
}

func TestTwoLevelFactorialBalance(t *testing.T) {
	d, err := TwoLevelFactorial(4)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 16 {
		t.Fatalf("2^4 = %d runs", d.N())
	}
	// Each column balanced: sum zero; all entries ±1.
	for j := 0; j < 4; j++ {
		var s float64
		for _, r := range d.Runs {
			if r[j] != 1 && r[j] != -1 {
				t.Fatalf("non-±1 entry %v", r[j])
			}
			s += r[j]
		}
		if s != 0 {
			t.Fatalf("column %d unbalanced", j)
		}
	}
}

func TestCentralCompositeStructure(t *testing.T) {
	k := 3
	d, err := CentralComposite(k, CCC, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 8 + 2*k + 4
	if d.N() != want {
		t.Fatalf("CCD runs = %d, want %d", d.N(), want)
	}
	alpha := math.Pow(8, 0.25)
	// Count point classes.
	var corners, axial, center int
	for _, r := range d.Runs {
		var nrm2 float64
		nonzero := 0
		for _, v := range r {
			nrm2 += v * v
			if v != 0 {
				nonzero++
			}
		}
		switch {
		case nonzero == 0:
			center++
		case nonzero == 1 && math.Abs(math.Sqrt(nrm2)-alpha) < 1e-12:
			axial++
		case nonzero == k && math.Abs(nrm2-float64(k)) < 1e-12:
			corners++
		default:
			t.Fatalf("unexpected CCD point %v", r)
		}
	}
	if corners != 8 || axial != 2*k || center != 4 {
		t.Fatalf("point classes: corners=%d axial=%d center=%d", corners, axial, center)
	}
}

func TestCCFAndCCIStayInBounds(t *testing.T) {
	for _, kind := range []CCDKind{CCF, CCI} {
		d, err := CentralComposite(4, kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range d.Runs {
			for _, v := range r {
				if v < -1-1e-12 || v > 1+1e-12 {
					t.Fatalf("%v escapes the cube in kind %d", r, kind)
				}
			}
		}
	}
}

func TestCentralCompositeValidation(t *testing.T) {
	if _, err := CentralComposite(1, CCC, 1); err == nil {
		t.Fatal("k=1 must error")
	}
	if _, err := CentralComposite(3, CCC, 0); err == nil {
		t.Fatal("no centre runs must error")
	}
}

func TestBoxBehnkenStructure(t *testing.T) {
	k := 4
	d, err := BoxBehnken(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 4*k*(k-1)/2 + 3
	if d.N() != want {
		t.Fatalf("BBD runs = %d, want %d", d.N(), want)
	}
	// No corner points: at most 2 nonzero coordinates per run.
	for _, r := range d.Runs {
		nz := 0
		for _, v := range r {
			if v != 0 {
				nz++
				if v != 1 && v != -1 {
					t.Fatalf("BBD entry %v not in {−1,0,1}", v)
				}
			}
		}
		if nz > 2 {
			t.Fatalf("BBD run %v has %d nonzeros", r, nz)
		}
	}
	if _, err := BoxBehnken(2, 1); err == nil {
		t.Fatal("k=2 must error")
	}
	if _, err := BoxBehnken(3, 0); err == nil {
		t.Fatal("no centre runs must error")
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	d, err := LatinHypercube(3, 10, 42, 200)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 10 || d.K() != 3 {
		t.Fatalf("LHS dims n=%d k=%d", d.N(), d.K())
	}
	// Each factor hits each of the 10 strata exactly once.
	for j := 0; j < 3; j++ {
		seen := map[int]bool{}
		for _, r := range d.Runs {
			cell := int(math.Floor((r[j] + 1) / 2 * 10))
			if cell == 10 {
				cell = 9
			}
			if seen[cell] {
				t.Fatalf("factor %d stratum %d hit twice", j, cell)
			}
			seen[cell] = true
		}
	}
}

func TestLatinHypercubeDeterminism(t *testing.T) {
	a, _ := LatinHypercube(2, 8, 7, 100)
	b, _ := LatinHypercube(2, 8, 7, 100)
	for i := range a.Runs {
		for j := range a.Runs[i] {
			if a.Runs[i][j] != b.Runs[i][j] {
				t.Fatal("same seed must reproduce the design")
			}
		}
	}
	if _, err := LatinHypercube(0, 10, 1, 10); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := LatinHypercube(2, 1, 1, 10); err == nil {
		t.Fatal("n=1 must error")
	}
}

func TestMaximinImprovesSpread(t *testing.T) {
	minDist := func(d *Design) float64 {
		best := math.Inf(1)
		for a := 0; a < d.N(); a++ {
			for b := a + 1; b < d.N(); b++ {
				var s float64
				for j := 0; j < d.K(); j++ {
					diff := d.Runs[a][j] - d.Runs[b][j]
					s += diff * diff
				}
				if s < best {
					best = s
				}
			}
		}
		return best
	}
	raw, _ := LatinHypercube(3, 12, 5, 0)
	opt, _ := LatinHypercube(3, 12, 5, 3000)
	if minDist(opt) < minDist(raw) {
		t.Fatalf("optimization reduced spread: %v < %v", minDist(opt), minDist(raw))
	}
}

// quadRow builds the full-quadratic model row for 2 factors:
// [1, x1, x2, x1², x2², x1x2].
func quadRow(x []float64) []float64 {
	return []float64{1, x[0], x[1], x[0] * x[0], x[1] * x[1], x[0] * x[1]}
}

func TestDOptimalSelectsInformativePoints(t *testing.T) {
	cands, err := FullFactorial(2, 5) // 25 candidates on a 5×5 grid
	if err != nil {
		t.Fatal(err)
	}
	d, err := DOptimal(cands, 8, quadRow, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.N() != 8 || d.K() != 2 {
		t.Fatalf("D-opt dims n=%d k=%d", d.N(), d.K())
	}
	// The D-optimal design must beat a random subset of the same size on
	// the determinant criterion.
	det := func(runs [][]float64) float64 {
		p := 6
		m := make([][]float64, p)
		for i := range m {
			m[i] = make([]float64, p)
		}
		for _, r := range runs {
			row := quadRow(r)
			for a := 0; a < p; a++ {
				for b := 0; b < p; b++ {
					m[a][b] += row[a] * row[b]
				}
			}
		}
		// log-det via Cholesky; −Inf if singular.
		var ld float64
		for i := 0; i < p; i++ {
			for j := 0; j <= i; j++ {
				s := m[i][j]
				for k := 0; k < j; k++ {
					s -= m[i][k] * m[j][k]
				}
				if i == j {
					if s <= 0 {
						return math.Inf(-1)
					}
					m[i][i] = math.Sqrt(s)
					ld += math.Log(m[i][i])
				} else {
					m[i][j] = s / m[j][j]
				}
			}
		}
		return 2 * ld
	}
	optLD := det(d.Runs)
	worse := 0
	for trial := 0; trial < 20; trial++ {
		r, err := LatinHypercube(2, 8, int64(trial), 0)
		if err != nil {
			t.Fatal(err)
		}
		if det(r.Runs) <= optLD+1e-9 {
			worse++
		}
	}
	if worse < 18 {
		t.Fatalf("D-optimal beaten by %d/20 random designs", 20-worse)
	}
}

func TestDOptimalValidation(t *testing.T) {
	cands, _ := FullFactorial(2, 3)
	if _, err := DOptimal(&Design{}, 5, quadRow, 1, 0); err == nil {
		t.Fatal("empty candidates must error")
	}
	if _, err := DOptimal(cands, 3, quadRow, 1, 0); err == nil {
		t.Fatal("size below model dimension must error")
	}
	if _, err := DOptimal(cands, 100, quadRow, 1, 0); err == nil {
		t.Fatal("size above candidate count must error")
	}
}

func TestAppend(t *testing.T) {
	a, _ := TwoLevelFactorial(2)
	b, _ := FullFactorial(2, 3)
	c, err := a.Append(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != a.N()+b.N() {
		t.Fatalf("append n = %d", c.N())
	}
	// Mutating the result must not touch the sources.
	c.Runs[0][0] = 99
	if a.Runs[0][0] == 99 {
		t.Fatal("append must deep-copy")
	}
	d3, _ := TwoLevelFactorial(3)
	if _, err := a.Append(d3); err == nil {
		t.Fatal("factor-count mismatch must error")
	}
}

func TestEmptyDesignAccessors(t *testing.T) {
	var d Design
	if d.K() != 0 || d.N() != 0 {
		t.Fatal("empty design accessors wrong")
	}
}
