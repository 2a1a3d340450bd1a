// Package power models the power-conditioning chain between the harvester
// coil and the sensor-node load: an N-stage diode–capacitor voltage
// multiplier, a supercapacitor energy store with leakage, and a regulator
// with undervoltage lockout.
//
// Two multiplier models are provided, mirroring the paper's two simulation
// speeds:
//
//   - Behavioural (this file): the charge-pump is reduced to an open-circuit
//     voltage V_oc = 2N·(V_in − V_d) and a Dickson-style output resistance
//     R_out = N/(f·C_stage), giving a smooth algebraic charging current.
//     This is what the fast linearized state-space engine uses.
//   - Full circuit (BuildMultiplierCircuit): the exact diode ladder netlist
//     solved by the Newton–Raphson MNA engine in internal/circuit, used as
//     the accuracy reference.
package power

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// MultiplierParams describes an N-stage voltage multiplier (Villard
// cascade / Dickson charge pump built from Schottky diodes).
type MultiplierParams struct {
	Stages    int     // number of doubling stages N ≥ 1
	StageCap  float64 // per-stage pump capacitance (F)
	DiodeDrop float64 // effective forward drop per diode (V)
	InputR    float64 // equivalent AC input resistance presented to the coil (Ω)
}

// DefaultMultiplier returns a 5-stage BAT54-based pump matching the
// harvester's µW power scale.
func DefaultMultiplier() MultiplierParams {
	return MultiplierParams{Stages: 5, StageCap: 10e-6, DiodeDrop: 0.22, InputR: 4000}
}

// finite reports the first of named values that is NaN or ±Inf.
func finite(names []string, vs ...float64) error {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("power: %s %g must be finite", names[i], v)
		}
	}
	return nil
}

// Validate checks the parameter set.
func (m MultiplierParams) Validate() error {
	if err := finite([]string{"stage capacitance", "diode drop", "input resistance"},
		m.StageCap, m.DiodeDrop, m.InputR); err != nil {
		return err
	}
	switch {
	case m.Stages < 1:
		return fmt.Errorf("power: multiplier needs ≥1 stage, got %d", m.Stages)
	case m.StageCap <= 0:
		return fmt.Errorf("power: stage capacitance %g must be positive", m.StageCap)
	case m.DiodeDrop < 0:
		return fmt.Errorf("power: diode drop %g must be non-negative", m.DiodeDrop)
	case m.InputR <= 0:
		return fmt.Errorf("power: input resistance %g must be positive", m.InputR)
	}
	return nil
}

// OpenCircuitVoltage returns the unloaded DC output for sinusoidal input of
// amplitude vin: V_oc = 2N·(vin − V_d), clamped at zero when the input
// cannot overcome the diode drops.
func (m MultiplierParams) OpenCircuitVoltage(vin float64) float64 {
	v := 2 * float64(m.Stages) * (vin - m.DiodeDrop)
	if v < 0 {
		return 0
	}
	return v
}

// OutputResistance returns the Dickson charge-pump output resistance
// N/(f·C) at pump frequency f (Hz).
func (m MultiplierParams) OutputResistance(f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return float64(m.Stages) / (f * m.StageCap)
}

// ChargeCurrent returns the DC current (A) delivered into a store held at
// voltage vstore, for input amplitude vin at frequency f. The diodes block
// reverse flow, so the current is never negative.
func (m MultiplierParams) ChargeCurrent(vin, f, vstore float64) float64 {
	return m.ChargeCurrentWithR(vin, m.OutputResistance(f), vstore)
}

// ChargeCurrentWithR is ChargeCurrent with the output resistance supplied
// by the caller (normally an OutputResistance memoized while the pump
// frequency holds still).
func (m MultiplierParams) ChargeCurrentWithR(vin, rout, vstore float64) float64 {
	voc := m.OpenCircuitVoltage(vin)
	if voc <= vstore {
		return 0
	}
	return (voc - vstore) / rout
}

// Supercap is a supercapacitor energy store with parallel leakage.
type Supercap struct {
	C     float64 // capacitance (F)
	LeakR float64 // parallel leakage resistance (Ω); 0 disables leakage
	VMax  float64 // overvoltage clamp (V); 0 disables clamping
}

// DefaultSupercap returns a 0.4 F, 5.5 V-rated store with realistic
// leakage (~1 µA at 4 V).
func DefaultSupercap() Supercap { return Supercap{C: 0.4, LeakR: 4e6, VMax: 5.5} }

// Validate checks the parameter set.
func (s Supercap) Validate() error {
	if err := finite([]string{"supercap capacitance", "leakage resistance", "voltage limit"},
		s.C, s.LeakR, s.VMax); err != nil {
		return err
	}
	switch {
	case s.C <= 0:
		return fmt.Errorf("power: supercap capacitance %g must be positive", s.C)
	case s.LeakR < 0:
		return fmt.Errorf("power: leakage resistance %g must be non-negative", s.LeakR)
	case s.VMax < 0:
		return fmt.Errorf("power: voltage limit %g must be non-negative", s.VMax)
	}
	return nil
}

// Energy returns the stored energy ½CV² (J) at voltage v.
func (s Supercap) Energy(v float64) float64 { return 0.5 * s.C * v * v }

// Step advances the store voltage over dt given charging current iIn and
// load current iOut (both A), returning the new voltage. Leakage is applied
// implicitly (exact exponential decay) so large dt remains stable.
func (s Supercap) Step(v, dt, iIn, iOut float64) float64 {
	return s.StepWithLeak(v, dt, iIn, iOut, s.LeakFactor(dt))
}

// LeakFactor returns the self-discharge factor e^(−dt/(R·C)) applied over a
// step of dt, or 1 when leakage is disabled. Fixed-step integrators can
// compute it once and use StepWithLeak to avoid an exp per step.
func (s Supercap) LeakFactor(dt float64) float64 {
	if s.LeakR <= 0 {
		return 1
	}
	return math.Exp(-dt / (s.LeakR * s.C))
}

// StepWithLeak is Step with the leak factor supplied by the caller
// (normally a memoized LeakFactor(dt)).
func (s Supercap) StepWithLeak(v, dt, iIn, iOut, leak float64) float64 {
	// Net external current.
	v += (iIn - iOut) * dt / s.C
	if s.LeakR > 0 {
		v *= leak
	}
	if v < 0 {
		v = 0
	}
	if s.VMax > 0 && v > s.VMax {
		v = s.VMax
	}
	return v
}

// Regulator converts supercap voltage to the node supply rail with a fixed
// efficiency and an undervoltage-lockout (UVLO) comparator with hysteresis:
// the output enables when the store rises above VOn and disables when it
// falls below VOff.
type Regulator struct {
	VOut float64 // regulated output voltage (V)
	Eff  float64 // conversion efficiency (0–1]
	VOn  float64 // UVLO enable threshold (V)
	VOff float64 // UVLO disable threshold (V); must be < VOn
}

// DefaultRegulator returns a 1.8 V, 85 %-efficient buck with a 2.8/2.4 V
// UVLO window.
func DefaultRegulator() Regulator { return Regulator{VOut: 1.8, Eff: 0.85, VOn: 2.8, VOff: 2.4} }

// Validate checks the parameter set.
func (r Regulator) Validate() error {
	if err := finite([]string{"regulator output", "efficiency", "VOn", "VOff"},
		r.VOut, r.Eff, r.VOn, r.VOff); err != nil {
		return err
	}
	switch {
	case r.VOut <= 0:
		return fmt.Errorf("power: regulator output %g must be positive", r.VOut)
	case r.Eff <= 0 || r.Eff > 1:
		return fmt.Errorf("power: efficiency %g must be in (0,1]", r.Eff)
	case r.VOn <= r.VOff:
		return fmt.Errorf("power: UVLO window VOn=%g must exceed VOff=%g", r.VOn, r.VOff)
	case r.VOff < 0:
		return fmt.Errorf("power: VOff %g must be non-negative", r.VOff)
	}
	return nil
}

// NextEnabled applies the UVLO comparator: given the previous enable state
// and the current store voltage it returns the new state.
func (r Regulator) NextEnabled(enabled bool, vstore float64) bool {
	if enabled {
		return vstore > r.VOff
	}
	return vstore >= r.VOn
}

// InputCurrent returns the current (A) drawn from the store at voltage
// vstore to supply load power pLoad (W) at the regulated rail. Returns 0
// when the regulator is disabled or the store is empty.
func (r Regulator) InputCurrent(enabled bool, vstore, pLoad float64) float64 {
	if !enabled || vstore <= 0 || pLoad <= 0 {
		return 0
	}
	return pLoad / (r.Eff * vstore)
}

// BuildMultiplierCircuit constructs the full nonlinear netlist of an
// N-stage Villard cascade driven by the harvester coil (modelled as an EMF
// source behind the coil resistance), charging a storage capacitor storeC
// preloaded to storeV0 and bled by loadR. It returns the circuit and the
// node index of the store, ready for circuit.Transient — this is the
// Newton–Raphson reference model for table R-T1.
func BuildMultiplierCircuit(stages int, stageCap float64, d circuit.DiodeParams, coilR float64, emf circuit.Waveform, storeC, storeV0, loadR float64) (*circuit.Circuit, int, error) {
	if stages < 1 {
		return nil, 0, fmt.Errorf("power: need ≥1 stage, got %d", stages)
	}
	c := circuit.New()
	src := c.Node("src")
	in := c.Node("in")
	if err := c.AddVoltageSource("Vemf", src, 0, emf); err != nil {
		return nil, 0, err
	}
	if err := c.AddResistor("Rcoil", src, in, coilR); err != nil {
		return nil, 0, err
	}
	// Cockcroft–Walton (Greinacher cascade): a push column of capacitors
	// chained from the AC input, a DC column chained from ground, and a
	// diode zigzag between them. Each stage lifts the DC rail by
	// ≈2·(V_in − V_d).
	prevPush := in // AC (push) column entry
	prevDC := 0    // DC column entry (ground)
	for s := 0; s < stages; s++ {
		push := c.Node(fmt.Sprintf("p%d", s))
		dc := c.Node(fmt.Sprintf("dc%d", s))
		if err := c.AddCapacitor(fmt.Sprintf("Cp%d", s), prevPush, push, stageCap, 0); err != nil {
			return nil, 0, err
		}
		if err := c.AddDiode(fmt.Sprintf("Da%d", s), prevDC, push, d); err != nil {
			return nil, 0, err
		}
		if err := c.AddDiode(fmt.Sprintf("Db%d", s), push, dc, d); err != nil {
			return nil, 0, err
		}
		if err := c.AddCapacitor(fmt.Sprintf("Cs%d", s), dc, prevDC, stageCap, 0); err != nil {
			return nil, 0, err
		}
		prevPush = push
		prevDC = dc
	}
	if err := c.AddCapacitor("Cstore", prevDC, 0, storeC, storeV0); err != nil {
		return nil, 0, err
	}
	if loadR > 0 {
		if err := c.AddResistor("Rload", prevDC, 0, loadR); err != nil {
			return nil, 0, err
		}
	}
	return c, prevDC, nil
}
