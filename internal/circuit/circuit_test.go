package circuit

import (
	"math"
	"testing"
)

func TestNodeCreation(t *testing.T) {
	c := New()
	if c.NumNodes() != 1 {
		t.Fatalf("new circuit has %d nodes, want 1 (ground)", c.NumNodes())
	}
	a := c.Node("a")
	if a != 1 {
		t.Fatalf("first node index = %d, want 1", a)
	}
	if c.Node("a") != a {
		t.Fatal("repeated Node must return same index")
	}
	if c.Node("gnd") != 0 || c.Node("0") != 0 {
		t.Fatal("ground aliases broken")
	}
}

func TestElementValidation(t *testing.T) {
	c := New()
	a, b := c.Node("a"), c.Node("b")
	if err := c.AddResistor("R1", a, b, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.AddResistor("R1", a, b, 100); err == nil {
		t.Fatal("duplicate name must error")
	}
	if err := c.AddResistor("R2", a, a, 100); err == nil {
		t.Fatal("shorted element must error")
	}
	if err := c.AddResistor("R3", a, b, -5); err == nil {
		t.Fatal("negative resistance must error")
	}
	if err := c.AddCapacitor("C1", a, b, 0, 0); err == nil {
		t.Fatal("zero capacitance must error")
	}
	if err := c.AddInductor("L1", a, b, -1, 0); err == nil {
		t.Fatal("negative inductance must error")
	}
	if err := c.AddDiode("D1", a, b, DiodeParams{}); err == nil {
		t.Fatal("empty diode params must error")
	}
	if err := c.AddVoltageSource("V1", a, b, nil); err == nil {
		t.Fatal("nil waveform must error")
	}
}

func TestResistorDivider(t *testing.T) {
	// 10 V across R1=1k into R2=2k: midpoint at 6.667 V.
	c := New()
	in, mid := c.Node("in"), c.Node("mid")
	mustOK(t, c.AddVoltageSource("V1", in, 0, DC(10)))
	mustOK(t, c.AddResistor("R1", in, mid, 1000))
	mustOK(t, c.AddResistor("R2", mid, 0, 2000))
	res, err := c.Transient(1e-3, 1e-4, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(mid)
	if got := v[len(v)-1]; math.Abs(got-20.0/3) > 1e-6 {
		t.Fatalf("divider voltage = %v, want 6.667", got)
	}
}

func TestRCCharging(t *testing.T) {
	// V=5, R=1k, C=1µF: v_C(t) = 5(1−e^{−t/RC}), τ=1 ms.
	c := New()
	in, out := c.Node("in"), c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, DC(5)))
	mustOK(t, c.AddResistor("R1", in, out, 1000))
	mustOK(t, c.AddCapacitor("C1", out, 0, 1e-6, 0))
	res, err := c.Transient(5e-3, 1e-6, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	// Check at t = τ.
	idx := 1000 // 1 ms / 1 µs
	want := 5 * (1 - math.Exp(-1))
	if got := v[idx]; math.Abs(got-want) > 0.01 {
		t.Fatalf("v_C(τ) = %v, want %v", got, want)
	}
	// Fully charged at the end.
	if got := v[len(v)-1]; math.Abs(got-5) > 0.05 {
		t.Fatalf("v_C(5τ) = %v, want ≈5", got)
	}
}

func TestCapacitorInitialCondition(t *testing.T) {
	// Discharge: C=1µF charged to 3 V through R=1k.
	c := New()
	out := c.Node("out")
	mustOK(t, c.AddResistor("R1", out, 0, 1000))
	mustOK(t, c.AddCapacitor("C1", out, 0, 1e-6, 3))
	res, err := c.Transient(3e-3, 1e-6, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	want := 3 * math.Exp(-1)
	if got := v[1000]; math.Abs(got-want) > 0.01 {
		t.Fatalf("discharge v(τ) = %v, want %v", got, want)
	}
}

func TestRLCurrentRise(t *testing.T) {
	// V=1, R=10, L=10mH: i(t) = 0.1(1−e^{−t·R/L}), τ = 1 ms.
	// Probe via the resistor voltage drop: v_out = V − i·R.
	c := New()
	in, out := c.Node("in"), c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, DC(1)))
	mustOK(t, c.AddResistor("R1", in, out, 10))
	mustOK(t, c.AddInductor("L1", out, 0, 10e-3, 0))
	res, err := c.Transient(5e-3, 1e-6, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	// At t=τ the inductor voltage is V·e^{−1}.
	want := math.Exp(-1)
	if got := v[1000]; math.Abs(got-want) > 0.01 {
		t.Fatalf("v_L(τ) = %v, want %v", got, want)
	}
}

func TestDiodeHalfWaveRectifier(t *testing.T) {
	// Sine source through diode into R‖C: output stays near the positive
	// peak minus one diode drop.
	c := New()
	in, out := c.Node("in"), c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, Sin(5, 50, 0, 0)))
	mustOK(t, c.AddDiode("D1", in, out, SiliconSmallSignal()))
	mustOK(t, c.AddCapacitor("C1", out, 0, 100e-6, 0))
	mustOK(t, c.AddResistor("RL", out, 0, 10e3))
	res, err := c.Transient(0.2, 2e-5, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	final := v[len(v)-1]
	if final < 3.5 || final > 5 {
		t.Fatalf("rectified output = %v, want ≈ 4.2–4.6 (peak − diode drop)", final)
	}
	// Output must never go significantly negative.
	for i, vi := range v {
		if vi < -0.1 {
			t.Fatalf("negative rectified output %v at sample %d", vi, i)
		}
	}
}

func TestDiodeBlocksReverse(t *testing.T) {
	// Negative DC source: diode blocks, output stays at ≈0.
	c := New()
	in, out := c.Node("in"), c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, DC(-5)))
	mustOK(t, c.AddDiode("D1", in, out, Schottky()))
	mustOK(t, c.AddResistor("RL", out, 0, 10e3))
	res, err := c.Transient(1e-3, 1e-5, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	if got := math.Abs(v[len(v)-1]); got > 1e-3 {
		t.Fatalf("reverse leakage output = %v, want ≈0", got)
	}
}

func TestVoltageDoubler(t *testing.T) {
	// Classic Villard/Greinacher doubler: 2-stage charge pump from a
	// 2 V-amplitude source should approach ≈2·(2 − V_d) ≈ 3.3 V unloaded.
	c := New()
	in := c.Node("in")
	n1 := c.Node("n1")
	out := c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, Sin(2, 100, 0, 0)))
	mustOK(t, c.AddCapacitor("C1", in, n1, 1e-6, 0))
	mustOK(t, c.AddDiode("D1", 0, n1, Schottky()))
	mustOK(t, c.AddDiode("D2", n1, out, Schottky()))
	mustOK(t, c.AddCapacitor("C2", out, 0, 1e-6, 0))
	mustOK(t, c.AddResistor("RL", out, 0, 1e7)) // nearly unloaded
	res, err := c.Transient(0.5, 2e-5, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	v := res.VoltageAt(out)
	final := v[len(v)-1]
	if final < 2.8 || final > 4.0 {
		t.Fatalf("doubler output = %v, want ≈3.3", final)
	}
}

func TestTransientBadArgs(t *testing.T) {
	c := New()
	a := c.Node("a")
	mustOK(t, c.AddResistor("R1", a, 0, 100))
	if _, err := c.Transient(0, 1e-6, TransientConfig{}); err == nil {
		t.Fatal("zero tEnd must error")
	}
	if _, err := c.Transient(1e-3, 0, TransientConfig{}); err == nil {
		t.Fatal("zero h must error")
	}
	if _, err := c.Transient(1e-6, 1e-3, TransientConfig{}); err == nil {
		t.Fatal("h > tEnd must error")
	}
}

func TestFloatingNodeError(t *testing.T) {
	// A capacitor-only node still has a companion conductance, but a node
	// with no elements at all cannot occur (nodes are created by elements).
	// Two capacitors in series create a truly floating middle node only at
	// h→∞; with BE companions it is solvable. Instead, force singularity
	// with a current source into a node with no DC path... which BE
	// companion of a capacitor actually provides. So test the error path
	// via a node created but never connected: MNA row is empty.
	c := New()
	a := c.Node("a")
	_ = c.Node("orphan") // creates an unknown with no stamps
	mustOK(t, c.AddResistor("R1", a, 0, 100))
	if _, err := c.Transient(1e-3, 1e-4, TransientConfig{}); err == nil {
		t.Fatal("orphan node must make the MNA matrix singular")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New()
	in, out := c.Node("in"), c.Node("out")
	mustOK(t, c.AddVoltageSource("V1", in, 0, Sin(2, 100, 0, 0)))
	mustOK(t, c.AddDiode("D1", in, out, Schottky()))
	mustOK(t, c.AddResistor("RL", out, 0, 1e4))
	res, err := c.Transient(0.02, 1e-5, TransientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Steps != 2000 {
		t.Fatalf("steps = %d, want 2000", res.Stats.Steps)
	}
	if res.Stats.NewtonIters < res.Stats.Steps {
		t.Fatalf("Newton iterations (%d) must be ≥ steps (%d)", res.Stats.NewtonIters, res.Stats.Steps)
	}
	if res.Stats.LUFactors != res.Stats.NewtonIters {
		t.Fatalf("full Newton refactors every iteration: LU=%d newton=%d", res.Stats.LUFactors, res.Stats.NewtonIters)
	}
}

func TestWaveformHelpers(t *testing.T) {
	if DC(3)(123) != 3 {
		t.Fatal("DC broken")
	}
	w := Sin(2, 50, 0, 1)
	if math.Abs(w(0)-1) > 1e-12 {
		t.Fatal("Sin offset broken")
	}
	if math.Abs(w(1.0/200)-3) > 1e-9 { // quarter period: offset + amplitude
		t.Fatal("Sin peak broken")
	}
}

func TestDiodeCompanionConsistency(t *testing.T) {
	// The companion model must reproduce the Shockley current at the
	// linearization point: i(vd) = g·vd + ieq.
	p := Schottky()
	for _, vd := range []float64{-2, -0.1, 0, 0.1, 0.3, 0.5} {
		g, ieq := diodeCompanion(p, vd)
		want := p.IS * (math.Exp(vd/(p.N*p.vt())) - 1)
		if got := g*vd + ieq; math.Abs(got-want) > 1e-9+1e-6*math.Abs(want) {
			t.Fatalf("companion at vd=%v: %v, want %v", vd, got, want)
		}
	}
}

func mustOK(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
