// Package harvester models the tunable electromagnetic vibration
// microgenerator that powers the sensor node: a seismic proof mass on a
// cantilever spring, electromagnetically coupled to a coil, with a
// magnetic-force resonance-tuning mechanism and displacement end-stops.
//
// The mechanical/electrical model follows the companion journal paper [2]
// (Kazmierski et al., IEEE Sensors J. 2012) and the linearized-simulation
// paper [4]:
//
//	m·ẍ + c_p·ẋ + k_eff(d)·x + F_stop(x) + Γ·i = −m·a(t)
//	L·di/dt + R_c·i + v_load = Γ·ẋ
//
// where x is the proof-mass displacement relative to the frame, a(t) the
// frame acceleration, Γ the electromagnetic coupling, and d the gap between
// the two axial tuning magnets. Closing the gap adds magnetic stiffness
//
//	k_t(d) = K_t·((d_min/d)^p − r) / (1 − r),  r = (d_min/d_max)^p
//
// normalized so that k_t(d_max) = 0 and k_t(d_min) = K_t, which raises the
// mechanical resonance from the untuned f_lo up to f_hi — the tunable band
// of the physical Southampton cantilever device (tens of Hz).
//
// The hard displacement end-stop F_stop is the dominant model nonlinearity;
// it is what forces the reference simulator into Newton–Raphson iterations
// and what the explicit linearized state-space engine of [4] handles by
// per-step linearization.
package harvester

import (
	"fmt"
	"math"
)

// Params describes a tunable electromagnetic microgenerator.
type Params struct {
	Mass     float64 // proof mass (kg)
	SpringK  float64 // untuned spring stiffness (N/m)
	DampingC float64 // parasitic (mechanical) damping (N·s/m)
	Gamma    float64 // electromagnetic coupling Γ (V·s/m ≡ N/A)
	CoilR    float64 // coil resistance (Ω)
	CoilL    float64 // coil inductance (H)

	MaxDisp float64 // displacement at which the end-stop engages (m)
	StopK   float64 // end-stop contact stiffness (N/m)

	TuneKMax float64 // added magnetic stiffness at the minimum gap (N/m)
	GapMin   float64 // minimum tuning-magnet gap (m)
	GapMax   float64 // maximum tuning-magnet gap (m)
	GapExp   float64 // magnetic force-law exponent p (≈3 for dipoles)
}

// Default returns parameters approximating the Southampton tunable
// cantilever microgenerator of [2]: ~45 Hz untuned resonance, tunable to
// ~90 Hz, delivering on the order of 100 µW at 0.6 m/s² excitation.
func Default() Params {
	m := 0.020                // 20 g proof mass
	f0 := 45.0                // untuned resonance (Hz)
	k := m * sq(2*math.Pi*f0) // ≈ 1599 N/m
	return Params{
		Mass:     m,
		SpringK:  k,
		DampingC: 0.06, // Q ≈ m·ω0/c ≈ 94
		Gamma:    4.2,
		CoilR:    1200,
		CoilL:    0.05,
		MaxDisp:  1.5e-3,
		StopK:    2e5,
		TuneKMax: 3 * k, // f_hi = 2·f_lo = 90 Hz
		GapMin:   1.2e-3,
		GapMax:   8e-3,
		GapExp:   3,
	}
}

func sq(x float64) float64 { return x * x }

// Validate checks physical plausibility of the parameter set.
func (p Params) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"mass", p.Mass}, {"spring stiffness", p.SpringK}, {"damping", p.DampingC},
		{"coupling", p.Gamma}, {"coil resistance", p.CoilR}, {"coil inductance", p.CoilL},
		{"displacement limit", p.MaxDisp}, {"end-stop stiffness", p.StopK},
		{"tuning stiffness", p.TuneKMax}, {"minimum gap", p.GapMin},
		{"maximum gap", p.GapMax}, {"force-law exponent", p.GapExp},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("harvester: %s %g must be finite", f.name, f.v)
		}
	}
	switch {
	case p.Mass <= 0:
		return fmt.Errorf("harvester: mass %g must be positive", p.Mass)
	case p.SpringK <= 0:
		return fmt.Errorf("harvester: spring stiffness %g must be positive", p.SpringK)
	case p.DampingC < 0:
		return fmt.Errorf("harvester: damping %g must be non-negative", p.DampingC)
	case p.Gamma < 0:
		return fmt.Errorf("harvester: coupling %g must be non-negative", p.Gamma)
	case p.CoilR <= 0:
		return fmt.Errorf("harvester: coil resistance %g must be positive", p.CoilR)
	case p.CoilL < 0:
		return fmt.Errorf("harvester: coil inductance %g must be non-negative", p.CoilL)
	case p.MaxDisp <= 0:
		return fmt.Errorf("harvester: displacement limit %g must be positive", p.MaxDisp)
	case p.StopK < 0:
		return fmt.Errorf("harvester: end-stop stiffness %g must be non-negative", p.StopK)
	case p.TuneKMax < 0:
		return fmt.Errorf("harvester: tuning stiffness %g must be non-negative", p.TuneKMax)
	case p.GapMin <= 0 || p.GapMax <= p.GapMin:
		return fmt.Errorf("harvester: bad gap range [%g, %g]", p.GapMin, p.GapMax)
	case p.GapExp <= 0:
		return fmt.Errorf("harvester: force-law exponent %g must be positive", p.GapExp)
	}
	return nil
}

// TuneStiffness returns the added magnetic stiffness k_t(gap) in N/m. The
// gap is clamped to [GapMin, GapMax].
func (p Params) TuneStiffness(gap float64) float64 {
	if p.TuneKMax == 0 {
		return 0
	}
	gap = p.ClampGap(gap)
	r := math.Pow(p.GapMin/p.GapMax, p.GapExp)
	return p.TuneKMax * (math.Pow(p.GapMin/gap, p.GapExp) - r) / (1 - r)
}

// ClampGap limits a requested gap to the mechanical travel of the actuator.
func (p Params) ClampGap(gap float64) float64 {
	if gap < p.GapMin {
		return p.GapMin
	}
	if gap > p.GapMax {
		return p.GapMax
	}
	return gap
}

// EffectiveStiffness returns k_eff(gap) = SpringK + k_t(gap).
func (p Params) EffectiveStiffness(gap float64) float64 {
	return p.SpringK + p.TuneStiffness(gap)
}

// ResonantFreq returns the (small-signal) resonant frequency in Hz at the
// given tuning gap.
func (p Params) ResonantFreq(gap float64) float64 {
	return math.Sqrt(p.EffectiveStiffness(gap)/p.Mass) / (2 * math.Pi)
}

// FreqRange returns the tunable band [f_lo, f_hi] in Hz.
func (p Params) FreqRange() (lo, hi float64) {
	return p.ResonantFreq(p.GapMax), p.ResonantFreq(p.GapMin)
}

// GapForFreq returns the tuning gap that sets the resonance to f (Hz). The
// result is clamped to the achievable band; ok reports whether f was inside
// the band.
func (p Params) GapForFreq(f float64) (gap float64, ok bool) {
	lo, hi := p.FreqRange()
	if f <= lo {
		return p.GapMax, f >= lo-1e-9
	}
	if f >= hi {
		return p.GapMin, f <= hi+1e-9
	}
	// Bisection on the monotone-decreasing ResonantFreq(gap).
	a, b := p.GapMin, p.GapMax
	for i := 0; i < 100; i++ {
		mid := 0.5 * (a + b)
		if p.ResonantFreq(mid) > f {
			a = mid
		} else {
			b = mid
		}
		if b-a < 1e-12 {
			break
		}
	}
	return 0.5 * (a + b), true
}

// StopForce returns the end-stop contact force for displacement x: zero
// inside ±MaxDisp, a stiff linear spring beyond.
func (p Params) StopForce(x float64) float64 {
	switch {
	case x > p.MaxDisp:
		return p.StopK * (x - p.MaxDisp)
	case x < -p.MaxDisp:
		return p.StopK * (x + p.MaxDisp)
	default:
		return 0
	}
}

// ElectricalDamping returns the equivalent electrical damping coefficient
// Γ²/(R_c + rload) in N·s/m for a resistive load, valid when the coil
// inductance is negligible at the operating frequency.
func (p Params) ElectricalDamping(rload float64) float64 {
	return sq(p.Gamma) / (p.CoilR + rload)
}

// SteadyStatePower returns the analytic average power (W) delivered to a
// resistive load rload under sinusoidal base acceleration of amplitude
// accel (m/s²) at frequency f (Hz), for the linear regime (no end-stop
// contact, coil inductance neglected). It is the closed-form used to verify
// the transient engines and to seed the behavioural fast path.
func (p Params) SteadyStatePower(accel, f, rload, gap float64) float64 {
	w := 2 * math.Pi * f
	k := p.EffectiveStiffness(gap)
	cTot := p.DampingC + p.ElectricalDamping(rload)
	// Relative displacement amplitude X = m·A / |k − mω² + jωc|.
	den := math.Hypot(k-p.Mass*w*w, cTot*w)
	if den == 0 {
		return 0
	}
	x := p.Mass * accel / den
	vAmp := w * x // velocity amplitude
	iAmp := p.Gamma * vAmp / (p.CoilR + rload)
	return 0.5 * sq(iAmp) * rload
}

// SteadyStateDisplacement returns the analytic displacement amplitude (m)
// in the linear regime for the same conditions as SteadyStatePower.
func (p Params) SteadyStateDisplacement(accel, f, rload, gap float64) float64 {
	w := 2 * math.Pi * f
	k := p.EffectiveStiffness(gap)
	cTot := p.DampingC + p.ElectricalDamping(rload)
	den := math.Hypot(k-p.Mass*w*w, cTot*w)
	if den == 0 {
		return math.Inf(1)
	}
	return p.Mass * accel / den
}

// OptimalLoad returns the resistive load that maximizes delivered power at
// resonance: R_L = R_c + Γ²/c_p (impedance matching including the
// mechanical damping reflected into the electrical domain).
func (p Params) OptimalLoad() float64 {
	if p.DampingC == 0 {
		return math.Inf(1)
	}
	return p.CoilR + sq(p.Gamma)/p.DampingC
}

// State is the electromechanical state of the harvester.
type State struct {
	X float64 // proof-mass displacement (m)
	V float64 // proof-mass velocity (m/s)
	I float64 // coil current (A)
}

// Derivatives computes the state derivatives under frame acceleration
// accel and coil terminal voltage vLoad (the voltage the power-conditioning
// stage presents to the coil). gap is the current tuning gap.
func (p Params) Derivatives(s State, accel, vLoad, gap float64) (dx, dv, di float64) {
	k := p.EffectiveStiffness(gap)
	dx = s.V
	dv = (-p.DampingC*s.V - k*s.X - p.StopForce(s.X) - p.Gamma*s.I - p.Mass*accel) / p.Mass
	if p.CoilL > 0 {
		di = (p.Gamma*s.V - p.CoilR*s.I - vLoad) / p.CoilL
	} else {
		di = 0 // caller resolves i algebraically when L = 0
	}
	return dx, dv, di
}

// AlgebraicCurrent returns the coil current for the L=0 case with the coil
// terminated by resistance rload: i = Γ·v / (R_c + R_L).
func (p Params) AlgebraicCurrent(v, rload float64) float64 {
	return p.Gamma * v / (p.CoilR + rload)
}

// EMF returns the open-circuit electromotive force Γ·v for proof-mass
// velocity v.
func (p Params) EMF(v float64) float64 { return p.Gamma * v }
