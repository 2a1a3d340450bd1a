// Package circuit implements a small SPICE-style nonlinear circuit
// simulator: modified nodal analysis (MNA) with companion models and a
// damped Newton–Raphson inner loop per transient step.
//
// This is the "traditional analogue simulation approach based on
// Newton–Raphson iterations" that the paper identifies as the main cause of
// long CPU times: every timestep rebuilds and refactors the MNA matrix once
// per Newton iteration until the node voltages converge. It serves as the
// trusted reference for the power-conditioning electronics (the multi-stage
// voltage multiplier with Schottky diodes) against which the fast
// behavioural and linearized state-space engines are validated.
//
// Supported elements: resistors, capacitors, inductors, Shockley diodes and
// independent voltage sources (time-varying). Node 0 is ground.
package circuit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/la"
)

// ErrNoConverge is returned when the Newton loop fails to converge.
var ErrNoConverge = errors.New("circuit: Newton iteration did not converge")

// DiodeParams are Shockley-model parameters.
type DiodeParams struct {
	IS float64 // saturation current (A)
	N  float64 // ideality factor
	VT float64 // thermal voltage (V); 0 means 25.85 mV
}

// Schottky returns parameters typical of a small-signal Schottky rectifier
// (BAT54-class), the device used in the harvester's voltage multiplier.
func Schottky() DiodeParams { return DiodeParams{IS: 1e-7, N: 1.05} }

// SiliconSmallSignal returns 1N4148-class parameters.
func SiliconSmallSignal() DiodeParams { return DiodeParams{IS: 4.35e-9, N: 1.84} }

func (d DiodeParams) vt() float64 {
	if d.VT > 0 {
		return d.VT
	}
	return 0.02585
}

// Waveform is a time-dependent scalar (source value as a function of time).
type Waveform func(t float64) float64

// DC returns a constant waveform.
func DC(v float64) Waveform { return func(float64) float64 { return v } }

// Sin returns amplitude·sin(2πf·t + phase) + offset.
func Sin(amplitude, freq, phase, offset float64) Waveform {
	return func(t float64) float64 {
		return offset + amplitude*math.Sin(2*math.Pi*freq*t+phase)
	}
}

type elemKind int

const (
	kindResistor elemKind = iota
	kindCapacitor
	kindInductor
	kindDiode
	kindVSource
)

type element struct {
	kind    elemKind
	name    string
	a, b    int // terminal nodes (current flows a→b through the element)
	value   float64
	ic      float64 // initial condition (V for capacitors, A for inductors)
	wave    Waveform
	diode   DiodeParams
	branch  int // extra MNA variable index for V sources and inductors (-1 otherwise)
	state   float64
	stateOK bool
}

// Circuit is a netlist under construction plus simulation state.
type Circuit struct {
	nodeNames []string
	nodeIndex map[string]int
	elems     []*element
	names     map[string]bool
	nBranch   int
}

// New returns an empty circuit with only the ground node ("0").
func New() *Circuit {
	c := &Circuit{nodeIndex: map[string]int{"0": 0}, nodeNames: []string{"0"}, names: map[string]bool{}}
	return c
}

// Node returns the index for a named node, creating it on first use.
// The name "0" (or "gnd") is ground.
func (c *Circuit) Node(name string) int {
	if name == "gnd" {
		name = "0"
	}
	if i, ok := c.nodeIndex[name]; ok {
		return i
	}
	i := len(c.nodeNames)
	c.nodeIndex[name] = i
	c.nodeNames = append(c.nodeNames, name)
	return i
}

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.nodeNames) }

func (c *Circuit) addElem(e *element) error {
	if c.names[e.name] {
		return fmt.Errorf("circuit: duplicate element name %q", e.name)
	}
	if e.a < 0 || e.a >= len(c.nodeNames) || e.b < 0 || e.b >= len(c.nodeNames) {
		return fmt.Errorf("circuit: element %q references unknown node", e.name)
	}
	if e.a == e.b {
		return fmt.Errorf("circuit: element %q is shorted (both terminals on node %d)", e.name, e.a)
	}
	e.branch = -1
	if e.kind == kindVSource || e.kind == kindInductor {
		e.branch = c.nBranch
		c.nBranch++
	}
	c.names[e.name] = true
	c.elems = append(c.elems, e)
	return nil
}

// AddResistor adds a resistor of r ohms between nodes a and b.
func (c *Circuit) AddResistor(name string, a, b int, r float64) error {
	if r <= 0 {
		return fmt.Errorf("circuit: resistor %q must have positive resistance, got %g", name, r)
	}
	return c.addElem(&element{kind: kindResistor, name: name, a: a, b: b, value: r})
}

// AddCapacitor adds a capacitor of f farads with initial voltage ic.
func (c *Circuit) AddCapacitor(name string, a, b int, f, ic float64) error {
	if f <= 0 {
		return fmt.Errorf("circuit: capacitor %q must have positive capacitance, got %g", name, f)
	}
	return c.addElem(&element{kind: kindCapacitor, name: name, a: a, b: b, value: f, ic: ic})
}

// AddInductor adds an inductor of h henries with initial current ic.
func (c *Circuit) AddInductor(name string, a, b int, h, ic float64) error {
	if h <= 0 {
		return fmt.Errorf("circuit: inductor %q must have positive inductance, got %g", name, h)
	}
	return c.addElem(&element{kind: kindInductor, name: name, a: a, b: b, value: h, ic: ic})
}

// AddDiode adds a diode with anode a and cathode b.
func (c *Circuit) AddDiode(name string, a, b int, p DiodeParams) error {
	if p.IS <= 0 || p.N <= 0 {
		return fmt.Errorf("circuit: diode %q has invalid parameters %+v", name, p)
	}
	return c.addElem(&element{kind: kindDiode, name: name, a: a, b: b, diode: p})
}

// AddVoltageSource adds an independent voltage source v(a)−v(b) = wave(t).
func (c *Circuit) AddVoltageSource(name string, a, b int, wave Waveform) error {
	if wave == nil {
		return fmt.Errorf("circuit: voltage source %q needs a waveform", name)
	}
	return c.addElem(&element{kind: kindVSource, name: name, a: a, b: b, wave: wave})
}

// TransientConfig controls the transient analysis.
type TransientConfig struct {
	MaxNewton int     // Newton iteration cap per step (default 100)
	VTol      float64 // voltage convergence tolerance (default 1e-6 V)
	Damping   float64 // max Newton voltage update per iteration (default 0.5 V)
}

func (cfg *TransientConfig) defaults() {
	if cfg.MaxNewton <= 0 {
		cfg.MaxNewton = 100
	}
	if cfg.VTol <= 0 {
		cfg.VTol = 1e-6
	}
	if cfg.Damping <= 0 {
		cfg.Damping = 0.5
	}
}

// TransientStats counts simulation work for the speed-comparison tables.
type TransientStats struct {
	Steps       int
	NewtonIters int
	LUFactors   int
}

// Result holds transient waveforms sampled at every accepted step.
type Result struct {
	Times []float64
	// V[node] is the node-voltage waveform; index by Circuit node index.
	V     [][]float64
	Stats TransientStats
}

// VoltageAt returns the waveform of the given node.
func (r *Result) VoltageAt(node int) []float64 { return r.V[node] }

// Transient runs a fixed-step transient analysis from 0 to tEnd with step h
// using backward-Euler companion models and damped Newton–Raphson.
// Capacitor and inductor initial conditions are applied at t = 0.
func (c *Circuit) Transient(tEnd, h float64, cfg TransientConfig) (*Result, error) {
	if tEnd <= 0 || h <= 0 || h > tEnd {
		return nil, fmt.Errorf("circuit: bad transient interval tEnd=%g h=%g", tEnd, h)
	}
	cfg.defaults()
	nn := len(c.nodeNames) - 1 // unknown node voltages (excluding ground)
	dim := nn + c.nBranch

	// Initialize element states (capacitor voltage, inductor current).
	for _, e := range c.elems {
		e.state = e.ic
		e.stateOK = true
	}

	x := make([]float64, dim) // solution: node voltages then branch currents
	res := &Result{}
	nSteps := int(math.Ceil(tEnd / h))
	res.Times = make([]float64, 0, nSteps+1)
	res.V = make([][]float64, len(c.nodeNames))
	for i := range res.V {
		res.V[i] = make([]float64, 0, nSteps+1)
	}
	record := func(t float64) {
		res.Times = append(res.Times, t)
		res.V[0] = append(res.V[0], 0)
		for n := 1; n < len(c.nodeNames); n++ {
			res.V[n] = append(res.V[n], x[n-1])
		}
	}
	record(0)

	for s := 1; s <= nSteps; s++ {
		t := float64(s) * h
		if t > tEnd {
			t = tEnd
		}
		if err := c.solveStep(t, h, x, cfg, &res.Stats); err != nil {
			return res, fmt.Errorf("at t=%g: %w", t, err)
		}
		// Commit companion states.
		for _, e := range c.elems {
			switch e.kind {
			case kindCapacitor:
				e.state = c.branchVoltage(e, x)
			case kindInductor:
				e.state = x[nn+e.branch]
			}
		}
		res.Stats.Steps++
		record(t)
	}
	return res, nil
}

func (c *Circuit) branchVoltage(e *element, x []float64) float64 {
	var va, vb float64
	if e.a > 0 {
		va = x[e.a-1]
	}
	if e.b > 0 {
		vb = x[e.b-1]
	}
	return va - vb
}

// solveStep performs the damped Newton iteration for one backward-Euler
// step ending at time t, updating x in place.
func (c *Circuit) solveStep(t, h float64, x []float64, cfg TransientConfig, st *TransientStats) error {
	nn := len(c.nodeNames) - 1
	dim := nn + c.nBranch
	xNew := make([]float64, dim)
	copy(xNew, x) // previous solution as the Newton seed

	for it := 0; it < cfg.MaxNewton; it++ {
		st.NewtonIters++
		g := la.NewMatrix(dim, dim)
		rhs := make([]float64, dim)

		stampConductance := func(a, b int, val float64) {
			if a > 0 {
				g.Add(a-1, a-1, val)
			}
			if b > 0 {
				g.Add(b-1, b-1, val)
			}
			if a > 0 && b > 0 {
				g.Add(a-1, b-1, -val)
				g.Add(b-1, a-1, -val)
			}
		}
		stampCurrent := func(a, b int, i float64) {
			// Current i flows out of node a into node b.
			if a > 0 {
				rhs[a-1] -= i
			}
			if b > 0 {
				rhs[b-1] += i
			}
		}

		for _, e := range c.elems {
			switch e.kind {
			case kindResistor:
				stampConductance(e.a, e.b, 1/e.value)

			case kindCapacitor:
				// Backward Euler: i = C/h·(v − v_prev).
				geq := e.value / h
				stampConductance(e.a, e.b, geq)
				stampCurrent(e.a, e.b, -geq*e.state)

			case kindInductor:
				// Branch equation: v_a − v_b − (L/h)·i = −(L/h)·i_prev.
				bi := nn + e.branch
				if e.a > 0 {
					g.Add(e.a-1, bi, 1)
					g.Add(bi, e.a-1, 1)
				}
				if e.b > 0 {
					g.Add(e.b-1, bi, -1)
					g.Add(bi, e.b-1, -1)
				}
				g.Add(bi, bi, -e.value/h)
				rhs[bi] += -e.value / h * e.state

			case kindDiode:
				vd := c.branchVoltage(e, xNew)
				gd, ieq := diodeCompanion(e.diode, vd)
				stampConductance(e.a, e.b, gd)
				stampCurrent(e.a, e.b, ieq)

			case kindVSource:
				bi := nn + e.branch
				if e.a > 0 {
					g.Add(e.a-1, bi, 1)
					g.Add(bi, e.a-1, 1)
				}
				if e.b > 0 {
					g.Add(e.b-1, bi, -1)
					g.Add(bi, e.b-1, -1)
				}
				rhs[bi] += e.wave(t)
			}
		}

		lu, err := la.FactorLU(g)
		if err != nil {
			return fmt.Errorf("circuit: singular MNA matrix (floating node?): %w", err)
		}
		st.LUFactors++
		sol, err := lu.Solve(rhs)
		if err != nil {
			return err
		}
		// Damped update on node voltages; branch currents take full steps.
		var maxDelta float64
		for i := 0; i < dim; i++ {
			d := sol[i] - xNew[i]
			if i < nn {
				if d > cfg.Damping {
					d = cfg.Damping
				} else if d < -cfg.Damping {
					d = -cfg.Damping
				}
				if a := math.Abs(d); a > maxDelta {
					maxDelta = a
				}
			}
			xNew[i] += d
		}
		if maxDelta <= cfg.VTol {
			copy(x, xNew)
			return nil
		}
	}
	return ErrNoConverge
}

// diodeCompanion returns the linearized conductance and equivalent current
// source for the Shockley diode at operating voltage vd, with exponent
// limiting for robustness.
func diodeCompanion(p DiodeParams, vd float64) (g, ieq float64) {
	nvt := p.N * p.vt()
	// Limit the exponent to avoid overflow far from convergence.
	const expCap = 80
	arg := vd / nvt
	if arg > expCap {
		arg = expCap
	}
	ex := math.Exp(arg)
	id := p.IS * (ex - 1)
	g = p.IS * ex / nvt
	if g < 1e-12 {
		g = 1e-12 // gmin keeps the matrix nonsingular when fully off
	}
	ieq = id - g*vd
	return g, ieq
}
