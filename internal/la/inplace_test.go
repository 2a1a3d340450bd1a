package la

import (
	"math"
	"math/rand"
	"testing"
)

// seedExpm is a verbatim copy of the pre-workspace Expm. The workspace
// implementation promises bit-identical results, and the tests below hold
// it to that promise.
func seedExpm(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, ErrShape
	}
	n := a.rows
	if n == 0 {
		return NewMatrix(0, 0), nil
	}
	norm := matrixNorm1(a)
	s := 0
	if norm > 0.5 {
		s = int(math.Ceil(math.Log2(norm / 0.5)))
		if s < 0 {
			s = 0
		}
	}
	scaled := a.Scale(math.Pow(2, -float64(s)))

	const degree = 6
	c := make([]float64, degree+1)
	c[0] = 1
	for k := 1; k <= degree; k++ {
		c[k] = c[k-1] * float64(degree-k+1) / (float64(k) * float64(2*degree-k+1))
	}
	x := scaled.Clone()
	even := Identity(n).Scale(c[0])
	odd := NewMatrix(n, n)
	pow := Identity(n)
	for k := 1; k <= degree; k++ {
		pow = pow.Mul(x)
		term := pow.Scale(c[k])
		if k%2 == 0 {
			even = even.AddM(term)
		} else {
			odd = odd.AddM(term)
		}
	}
	num := even.AddM(odd)
	den := even.SubM(odd)
	lu, err := FactorLU(den)
	if err != nil {
		return nil, err
	}
	r, err := lu.SolveMatrix(num)
	if err != nil {
		return nil, err
	}
	for k := 0; k < s; k++ {
		r = r.Mul(r)
	}
	return r, nil
}

// seedDiscretizeZOH is a verbatim copy of the pre-workspace DiscretizeZOH.
func seedDiscretizeZOH(a, b *Matrix, h float64) (ad, bd *Matrix, err error) {
	if a.rows != a.cols || b.rows != a.rows {
		return nil, nil, ErrShape
	}
	n := a.rows
	m := b.cols
	blk := NewMatrix(n+m, n+m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			blk.Set(i, j, a.At(i, j)*h)
		}
		for j := 0; j < m; j++ {
			blk.Set(i, n+j, b.At(i, j)*h)
		}
	}
	e, err := seedExpm(blk)
	if err != nil {
		return nil, nil, err
	}
	ad = NewMatrix(n, n)
	bd = NewMatrix(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ad.Set(i, j, e.At(i, j))
		}
		for j := 0; j < m; j++ {
			bd.Set(i, j, e.At(i, n+j))
		}
	}
	return ad, bd, nil
}

func randMatrix(rng *rand.Rand, r, c int, scale float64) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.data {
		m.data[i] = scale * (2*rng.Float64() - 1)
	}
	return m
}

func requireBitIdentical(t *testing.T, ctx string, want, got *Matrix) {
	t.Helper()
	if want.rows != got.rows || want.cols != got.cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.rows, want.cols, got.rows, got.cols)
	}
	for i, w := range want.data {
		if math.Float64bits(w) != math.Float64bits(got.data[i]) {
			t.Fatalf("%s: element %d differs: %v (%#x) vs %v (%#x)",
				ctx, i, w, math.Float64bits(w), got.data[i], math.Float64bits(got.data[i]))
		}
	}
}

// TestExpmWorkspaceBitIdenticalToSeed drives the reusable workspace and the
// historical allocating implementation over the same inputs — small and
// large norms (exercising zero and multiple squaring rounds), repeated use
// of one workspace (exercising buffer-swap state) — and requires exact
// bit equality.
func TestExpmWorkspaceBitIdenticalToSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5} {
		ws := NewExpmWorkspace(n)
		for trial := 0; trial < 20; trial++ {
			scale := math.Pow(10, float64(trial%5)-2) // 1e-2 .. 1e2
			a := randMatrix(rng, n, n, scale)
			want, err := seedExpm(a)
			if err != nil {
				t.Fatalf("n=%d trial=%d: seed: %v", n, trial, err)
			}
			got, err := ws.Compute(a)
			if err != nil {
				t.Fatalf("n=%d trial=%d: workspace: %v", n, trial, err)
			}
			requireBitIdentical(t, "expm", want, got)
		}
	}
}

// TestExpmWrapperBitIdenticalToSeed covers the one-shot Expm wrapper too.
func TestExpmWrapperBitIdenticalToSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		a := randMatrix(rng, 4, 4, 3)
		want, err := seedExpm(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Expm(a)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "expm wrapper", want, got)
	}
}

// TestZOHWorkspaceBitIdenticalToSeed compares workspace discretization
// against the historical implementation on harvester-like systems.
func TestZOHWorkspaceBitIdenticalToSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ws := NewZOHWorkspace(3, 2)
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 3, 3, 100)
		b := randMatrix(rng, 3, 2, 10)
		h := math.Pow(10, -float64(2+trial%3)) // 1e-2 .. 1e-4
		wantAd, wantBd, err := seedDiscretizeZOH(a, b, h)
		if err != nil {
			t.Fatal(err)
		}
		gotAd, gotBd, err := ws.Discretize(a, b, h)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "zoh Ad", wantAd, gotAd)
		requireBitIdentical(t, "zoh Bd", wantBd, gotBd)
	}
}

func TestExpmWorkspaceShapeMismatch(t *testing.T) {
	ws := NewExpmWorkspace(3)
	if _, err := ws.Compute(NewMatrix(2, 2)); err != ErrShape {
		t.Fatalf("wrong-size input: got %v, want ErrShape", err)
	}
	if _, err := ws.Compute(NewMatrix(3, 2)); err != ErrShape {
		t.Fatalf("non-square input: got %v, want ErrShape", err)
	}
}

func TestZOHWorkspaceShapeMismatch(t *testing.T) {
	ws := NewZOHWorkspace(3, 2)
	if _, _, err := ws.Discretize(NewMatrix(2, 2), NewMatrix(2, 2), 1e-3); err != ErrShape {
		t.Fatalf("wrong-size system: got %v, want ErrShape", err)
	}
}

// TestWorkspacesZeroAllocSteadyState pins the whole point of the
// workspaces: after construction, repeated computes allocate nothing.
func TestWorkspacesZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := randMatrix(rng, 5, 5, 10)
	ews := NewExpmWorkspace(5)
	if _, err := ews.Compute(a); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := ews.Compute(a); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ExpmWorkspace.Compute allocates %.1f objects/op, want 0", n)
	}

	sa := randMatrix(rng, 3, 3, 100)
	sb := randMatrix(rng, 3, 2, 10)
	zws := NewZOHWorkspace(3, 2)
	if _, _, err := zws.Discretize(sa, sb, 1e-3); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, _, err := zws.Discretize(sa, sb, 1e-3); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ZOHWorkspace.Discretize allocates %.1f objects/op, want 0", n)
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randMatrix(rng, 4, 3, 5)
	b := randMatrix(rng, 3, 5, 5)
	// Plant exact zeros to exercise the skip branch both paths share.
	a.Set(1, 1, 0)
	a.Set(3, 0, 0)
	want := a.Mul(b)
	got := NewMatrix(4, 5)
	MulInto(got, a, b)
	requireBitIdentical(t, "MulInto", want, got)
}

func TestMulIntoAliasPanics(t *testing.T) {
	a := Identity(3)
	defer func() {
		if recover() == nil {
			t.Fatal("MulInto with aliased destination must panic")
		}
	}()
	MulInto(a, a, Identity(3))
}

func TestElementwiseIntoMatchAndAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 3, 4, 2)
	b := randMatrix(rng, 3, 4, 2)

	sum := NewMatrix(3, 4)
	AddInto(sum, a, b)
	requireBitIdentical(t, "AddInto", a.AddM(b), sum)

	diff := NewMatrix(3, 4)
	SubInto(diff, a, b)
	requireBitIdentical(t, "SubInto", a.SubM(b), diff)

	scaled := NewMatrix(3, 4)
	ScaleInto(scaled, a, 2.5)
	requireBitIdentical(t, "ScaleInto", a.Scale(2.5), scaled)

	// Element-wise kernels tolerate aliasing: accumulate in place.
	wantAcc := a.AddM(b)
	acc := a.Clone()
	AddInto(acc, acc, b)
	requireBitIdentical(t, "AddInto aliased", wantAcc, acc)

	wantScl := a.Scale(-3)
	scl := a.Clone()
	ScaleInto(scl, scl, -3)
	requireBitIdentical(t, "ScaleInto aliased", wantScl, scl)
}

func TestSetIdentityAndCopyInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m := randMatrix(rng, 4, 4, 9)
	SetIdentity(m)
	requireBitIdentical(t, "SetIdentity", Identity(4), m)
}

func TestDataAndRowViewWriteThrough(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data()[1*3+2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Data() must alias the matrix storage")
	}
}

func TestLURefactorMatchesFactorLU(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var f LU
	for trial := 0; trial < 10; trial++ {
		a := randMatrix(rng, 4, 4, 10)
		ref, err := FactorLU(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Refactor(a); err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "Refactor packed LU", ref.lu, f.lu)
		for i := range ref.piv {
			if ref.piv[i] != f.piv[i] {
				t.Fatalf("pivot %d differs: %d vs %d", i, ref.piv[i], f.piv[i])
			}
		}
		if math.Float64bits(ref.Det()) != math.Float64bits(f.Det()) {
			t.Fatalf("determinant differs: %v vs %v", ref.Det(), f.Det())
		}
	}
}

func TestLUSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randMatrix(rng, 5, 5, 10)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 5)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, 5)
	if err := f.SolveInto(got, b); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("x[%d]: %v vs %v", i, want[i], got[i])
		}
	}

	bm := randMatrix(rng, 5, 3, 4)
	wantM, err := f.SolveMatrix(bm)
	if err != nil {
		t.Fatal(err)
	}
	gotM := NewMatrix(5, 3)
	if err := f.SolveMatrixInto(gotM, bm, make([]float64, 10)); err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "SolveMatrixInto", wantM, gotM)

	if err := f.SolveMatrixInto(gotM, bm, make([]float64, 9)); err != ErrShape {
		t.Fatalf("undersized scratch: got %v, want ErrShape", err)
	}
}
