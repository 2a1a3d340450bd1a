// Package vibration models the ambient kinetic excitation that drives the
// tunable harvester. The paper's evaluation environments (machine-room,
// structural and body-worn vibration) are proprietary measured traces; per
// the substitution rule they are replaced here by synthetic sources with the
// same amplitude (~0.1–1 m/s²) and frequency (tens of Hz) envelopes:
//
//   - Sine: single dominant tone, the canonical resonant-harvesting case.
//   - SteppedSine: a tone whose frequency jumps at scheduled times — the
//     stimulus used to exercise the tuning controller's tracking loop.
//   - DriftingSine: slow linear frequency drift (thermal drift of rotating
//     machinery).
//   - MultiTone: a dominant tone plus weaker harmonics/siblings.
//   - NoisySine: dominant tone with band-limited acceleration noise.
//   - RandomWalkSine: frequency performs a bounded random walk, emulating
//     the wander seen in measured traces.
//
// All sources expose instantaneous acceleration a(t) in m/s² and, where
// meaningful, the current dominant frequency (ground truth for evaluating
// the tuner's frequency estimator).
package vibration

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Source provides the base acceleration applied to the harvester frame.
//
// Accel and DominantFreq must be pure functions of t: repeated and
// out-of-order calls return bit-identical values, with no state carried
// between calls. The engines rely on it — sim.RunBatch samples the source
// once per step for all of its lanes, and a sim.Drives replay reuses a
// drive recorded against another run of the same source.
type Source interface {
	// Accel returns the instantaneous acceleration in m/s² at time t (s).
	Accel(t float64) float64
	// DominantFreq returns the dominant excitation frequency in Hz at time
	// t — the quantity a perfectly informed tuner would track.
	DominantFreq(t float64) float64
}

// Sine is a constant-frequency, constant-amplitude tone.
type Sine struct {
	Amplitude float64 // m/s²
	Freq      float64 // Hz
	Phase     float64 // rad
}

// Accel returns A·sin(2πft + φ).
func (s Sine) Accel(t float64) float64 {
	return s.Amplitude * math.Sin(2*math.Pi*s.Freq*t+s.Phase)
}

// DominantFreq returns the tone frequency.
func (s Sine) DominantFreq(t float64) float64 { return s.Freq }

// FreqStep is one segment of a SteppedSine schedule.
type FreqStep struct {
	At   float64 // time (s) the segment begins
	Freq float64 // Hz
}

// SteppedSine is a tone whose frequency switches at scheduled instants.
// Phase is kept continuous across switches so the acceleration waveform has
// no jump discontinuities.
type SteppedSine struct {
	Amplitude float64
	Steps     []FreqStep // must be sorted by At; first entry should be at 0
}

// NewSteppedSine builds a stepped source, sorting and validating the
// schedule.
func NewSteppedSine(amplitude float64, steps []FreqStep) (*SteppedSine, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("vibration: empty step schedule")
	}
	s := make([]FreqStep, len(steps))
	copy(s, steps)
	sort.Slice(s, func(i, j int) bool { return s[i].At < s[j].At })
	if s[0].At > 0 {
		s[0].At = 0 // extend the first segment back to t=0
	}
	for _, st := range s {
		if st.Freq <= 0 {
			return nil, fmt.Errorf("vibration: non-positive frequency %g", st.Freq)
		}
	}
	return &SteppedSine{Amplitude: amplitude, Steps: s}, nil
}

// phaseAt integrates 2πf over [0, t] across the schedule segments.
func (s *SteppedSine) phaseAt(t float64) float64 {
	var phase float64
	for i, st := range s.Steps {
		end := t
		if i+1 < len(s.Steps) && s.Steps[i+1].At < t {
			end = s.Steps[i+1].At
		}
		if end <= st.At {
			break
		}
		phase += 2 * math.Pi * st.Freq * (end - st.At)
		if end == t {
			break
		}
	}
	return phase
}

// Accel returns the phase-continuous stepped tone.
func (s *SteppedSine) Accel(t float64) float64 {
	return s.Amplitude * math.Sin(s.phaseAt(t))
}

// DominantFreq returns the frequency of the active segment.
func (s *SteppedSine) DominantFreq(t float64) float64 {
	f := s.Steps[0].Freq
	for _, st := range s.Steps {
		if st.At <= t {
			f = st.Freq
		} else {
			break
		}
	}
	return f
}

// DriftingSine sweeps frequency linearly from StartFreq at rate Rate
// (Hz/s), clamped to [MinFreq, MaxFreq] when those bounds are set.
type DriftingSine struct {
	Amplitude float64
	StartFreq float64
	Rate      float64 // Hz per second
	MinFreq   float64 // optional clamp (0 = none)
	MaxFreq   float64 // optional clamp (0 = none)
}

// DominantFreq returns the instantaneous swept frequency.
func (s DriftingSine) DominantFreq(t float64) float64 {
	f := s.StartFreq + s.Rate*t
	if s.MinFreq > 0 && f < s.MinFreq {
		f = s.MinFreq
	}
	if s.MaxFreq > 0 && f > s.MaxFreq {
		f = s.MaxFreq
	}
	return f
}

// Accel returns the chirp with exact integrated phase on the unclamped
// region and clamped-frequency phase beyond it.
func (s DriftingSine) Accel(t float64) float64 {
	// Integrated phase of f(t) = f0 + r·t (ignoring clamps, which only
	// matter for very long horizons; the clamp error is a bounded phase
	// offset that does not affect the energy statistics).
	phase := 2 * math.Pi * (s.StartFreq*t + 0.5*s.Rate*t*t)
	return s.Amplitude * math.Sin(phase)
}

// MultiTone sums a dominant tone with weaker siblings.
type MultiTone struct {
	Tones []Sine // Tones[argmax amplitude] is the dominant component
}

// Accel returns the superposition of all tones.
func (m MultiTone) Accel(t float64) float64 {
	var a float64
	for _, tone := range m.Tones {
		a += tone.Accel(t)
	}
	return a
}

// DominantFreq returns the frequency of the strongest tone.
func (m MultiTone) DominantFreq(t float64) float64 {
	if len(m.Tones) == 0 {
		return 0
	}
	best := 0
	for i, tone := range m.Tones {
		if math.Abs(tone.Amplitude) > math.Abs(m.Tones[best].Amplitude) {
			best = i
		}
	}
	return m.Tones[best].Freq
}

// NoisySine is a dominant tone plus band-limited (first-order filtered)
// Gaussian acceleration noise. The noise is generated on a fixed lattice so
// Accel is deterministic for a given seed and reproducible across calls.
type NoisySine struct {
	tone     Sine
	noiseAmp float64
	dt       float64
	samples  []float64
}

// NewNoisySine builds a noisy tone. noiseAmp is the RMS of the additive
// noise (m/s²), horizon the duration to pre-generate, dt the noise lattice
// spacing (s), and seed the RNG seed.
func NewNoisySine(tone Sine, noiseAmp, horizon, dt float64, seed int64) (*NoisySine, error) {
	if dt <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("vibration: bad lattice horizon=%g dt=%g", horizon, dt)
	}
	n := int(horizon/dt) + 2
	rng := rand.New(rand.NewSource(seed))
	samples := make([]float64, n)
	// First-order low-pass filtered white noise (AR(1)).
	const alpha = 0.9
	var prev float64
	for i := range samples {
		prev = alpha*prev + (1-alpha)*rng.NormFloat64()
		samples[i] = prev
	}
	// Normalize to the requested RMS.
	var ss float64
	for _, v := range samples {
		ss += v * v
	}
	rms := math.Sqrt(ss / float64(n))
	if rms > 0 {
		for i := range samples {
			samples[i] *= noiseAmp / rms
		}
	}
	return &NoisySine{tone: tone, noiseAmp: noiseAmp, dt: dt, samples: samples}, nil
}

// Accel returns tone + interpolated lattice noise. Beyond the pre-generated
// horizon the noise wraps around, keeping the source defined for any t.
func (s *NoisySine) Accel(t float64) float64 {
	idx := t / s.dt
	i := int(idx)
	frac := idx - float64(i)
	n := len(s.samples)
	a := s.samples[((i%n)+n)%n]
	b := s.samples[(((i+1)%n)+n)%n]
	return s.tone.Accel(t) + a + frac*(b-a)
}

// DominantFreq returns the underlying tone frequency.
func (s *NoisySine) DominantFreq(t float64) float64 { return s.tone.Freq }

// RandomWalkSine is a tone whose frequency performs a bounded random walk
// on a fixed lattice: f_{k+1} = clamp(f_k + σ·N(0,1), min, max). Phase is
// continuous. It emulates the slow wander of real machine vibration.
type RandomWalkSine struct {
	Amplitude float64
	dt        float64
	freqs     []float64 // frequency per lattice cell
	phases    []float64 // accumulated phase at each lattice point
}

// NewRandomWalkSine pre-generates a frequency walk over the horizon.
func NewRandomWalkSine(amplitude, f0, sigma, fmin, fmax, horizon, dt float64, seed int64) (*RandomWalkSine, error) {
	if dt <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("vibration: bad lattice horizon=%g dt=%g", horizon, dt)
	}
	if fmin <= 0 || fmax < fmin || f0 < fmin || f0 > fmax {
		return nil, fmt.Errorf("vibration: bad frequency bounds f0=%g [%g,%g]", f0, fmin, fmax)
	}
	n := int(horizon/dt) + 2
	rng := rand.New(rand.NewSource(seed))
	freqs := make([]float64, n)
	phases := make([]float64, n+1)
	f := f0
	for i := 0; i < n; i++ {
		freqs[i] = f
		phases[i+1] = phases[i] + 2*math.Pi*f*dt
		f += sigma * rng.NormFloat64()
		if f < fmin {
			f = fmin
		}
		if f > fmax {
			f = fmax
		}
	}
	return &RandomWalkSine{Amplitude: amplitude, dt: dt, freqs: freqs, phases: phases}, nil
}

func (s *RandomWalkSine) cell(t float64) int {
	i := int(t / s.dt)
	if i < 0 {
		i = 0
	}
	if i >= len(s.freqs) {
		i = len(s.freqs) - 1
	}
	return i
}

// Accel returns the phase-continuous wandering tone.
func (s *RandomWalkSine) Accel(t float64) float64 {
	i := s.cell(t)
	phase := s.phases[i] + 2*math.Pi*s.freqs[i]*(t-float64(i)*s.dt)
	return s.Amplitude * math.Sin(phase)
}

// DominantFreq returns the walk frequency at time t.
func (s *RandomWalkSine) DominantFreq(t float64) float64 { return s.freqs[s.cell(t)] }
