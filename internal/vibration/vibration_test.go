package vibration

import (
	"math"
	"testing"
)

func TestSineBasics(t *testing.T) {
	s := Sine{Amplitude: 2, Freq: 10}
	if s.Accel(0) != 0 {
		t.Fatalf("a(0) = %v, want 0", s.Accel(0))
	}
	// Peak at quarter period.
	if got := s.Accel(1.0 / 40); math.Abs(got-2) > 1e-12 {
		t.Fatalf("a(T/4) = %v, want 2", got)
	}
	if s.DominantFreq(123) != 10 {
		t.Fatal("dominant frequency wrong")
	}
}

func TestSinePeriodicity(t *testing.T) {
	s := Sine{Amplitude: 1, Freq: 47.5, Phase: 0.3}
	period := 1 / s.Freq
	for _, tt := range []float64{0.01, 0.5, 2.34} {
		if d := math.Abs(s.Accel(tt) - s.Accel(tt+period)); d > 1e-9 {
			t.Fatalf("not periodic at t=%v: diff %v", tt, d)
		}
	}
}

func TestSteppedSineSchedule(t *testing.T) {
	s, err := NewSteppedSine(1, []FreqStep{{At: 0, Freq: 50}, {At: 10, Freq: 60}, {At: 20, Freq: 45}})
	if err != nil {
		t.Fatal(err)
	}
	if f := s.DominantFreq(5); f != 50 {
		t.Fatalf("f(5) = %v, want 50", f)
	}
	if f := s.DominantFreq(15); f != 60 {
		t.Fatalf("f(15) = %v, want 60", f)
	}
	if f := s.DominantFreq(25); f != 45 {
		t.Fatalf("f(25) = %v, want 45", f)
	}
}

func TestSteppedSinePhaseContinuity(t *testing.T) {
	s, err := NewSteppedSine(1, []FreqStep{{At: 0, Freq: 50}, {At: 1.234, Freq: 80}})
	if err != nil {
		t.Fatal(err)
	}
	// The waveform must be continuous across the switch.
	eps := 1e-7
	before := s.Accel(1.234 - eps)
	after := s.Accel(1.234 + eps)
	if math.Abs(before-after) > 1e-3 {
		t.Fatalf("discontinuity at switch: %v vs %v", before, after)
	}
}

func TestSteppedSineUnsortedInputSorted(t *testing.T) {
	s, err := NewSteppedSine(1, []FreqStep{{At: 10, Freq: 60}, {At: 0, Freq: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if f := s.DominantFreq(1); f != 50 {
		t.Fatalf("schedule not sorted: f(1) = %v", f)
	}
}

func TestSteppedSineValidation(t *testing.T) {
	if _, err := NewSteppedSine(1, nil); err == nil {
		t.Fatal("empty schedule must error")
	}
	if _, err := NewSteppedSine(1, []FreqStep{{At: 0, Freq: -5}}); err == nil {
		t.Fatal("negative frequency must error")
	}
}

func TestDriftingSine(t *testing.T) {
	d := DriftingSine{Amplitude: 1, StartFreq: 50, Rate: 2}
	if f := d.DominantFreq(0); f != 50 {
		t.Fatalf("f(0) = %v", f)
	}
	if f := d.DominantFreq(5); f != 60 {
		t.Fatalf("f(5) = %v, want 60", f)
	}
	// With clamps.
	d2 := DriftingSine{Amplitude: 1, StartFreq: 50, Rate: 10, MaxFreq: 70}
	if f := d2.DominantFreq(100); f != 70 {
		t.Fatalf("clamped f = %v, want 70", f)
	}
	d3 := DriftingSine{Amplitude: 1, StartFreq: 50, Rate: -10, MinFreq: 40}
	if f := d3.DominantFreq(100); f != 40 {
		t.Fatalf("clamped f = %v, want 40", f)
	}
	if d.Accel(0) != 0 {
		t.Fatal("chirp must start at 0 phase")
	}
}

func TestMultiToneDominant(t *testing.T) {
	m := MultiTone{Tones: []Sine{
		{Amplitude: 0.2, Freq: 100},
		{Amplitude: 0.8, Freq: 52},
		{Amplitude: 0.1, Freq: 25},
	}}
	if f := m.DominantFreq(0); f != 52 {
		t.Fatalf("dominant = %v, want 52", f)
	}
	// Superposition at t=0 is 0 (all sines, zero phase).
	if a := m.Accel(0); a != 0 {
		t.Fatalf("a(0) = %v", a)
	}
	var empty MultiTone
	if empty.DominantFreq(0) != 0 {
		t.Fatal("empty multitone dominant must be 0")
	}
}

func TestNoisySineRMSAndDeterminism(t *testing.T) {
	tone := Sine{Amplitude: 0.5, Freq: 50}
	n1, err := NewNoisySine(tone, 0.1, 10, 1e-3, 42)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := NewNoisySine(tone, 0.1, 10, 1e-3, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Determinism.
	for _, tt := range []float64{0.1, 1.5, 9.99} {
		if n1.Accel(tt) != n2.Accel(tt) {
			t.Fatal("same seed must give identical noise")
		}
	}
	// Noise RMS ≈ requested: average squared residual (signal − tone).
	var ss float64
	const samples = 10000
	for i := 0; i < samples; i++ {
		tt := float64(i) * 1e-3
		r := n1.Accel(tt) - tone.Accel(tt)
		ss += r * r
	}
	rms := math.Sqrt(ss / samples)
	if rms < 0.05 || rms > 0.2 {
		t.Fatalf("noise RMS = %v, want ≈0.1", rms)
	}
	if n1.DominantFreq(0) != 50 {
		t.Fatal("dominant frequency must be the tone's")
	}
}

func TestNoisySineValidation(t *testing.T) {
	if _, err := NewNoisySine(Sine{}, 0.1, 0, 1e-3, 1); err == nil {
		t.Fatal("zero horizon must error")
	}
	if _, err := NewNoisySine(Sine{}, 0.1, 1, 0, 1); err == nil {
		t.Fatal("zero dt must error")
	}
}

func TestRandomWalkSineBounds(t *testing.T) {
	w, err := NewRandomWalkSine(0.7, 60, 0.5, 50, 70, 100, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0.0; tt < 100; tt += 0.5 {
		f := w.DominantFreq(tt)
		if f < 50 || f > 70 {
			t.Fatalf("walk escaped bounds: f(%v) = %v", tt, f)
		}
	}
}

func TestRandomWalkSinePhaseContinuity(t *testing.T) {
	w, err := NewRandomWalkSine(1, 60, 1.0, 50, 70, 10, 0.05, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Sample across many lattice boundaries; consecutive accelerations at
	// small spacing must not jump.
	prev := w.Accel(0)
	const dt = 1e-4
	for tt := dt; tt < 5; tt += dt {
		cur := w.Accel(tt)
		if math.Abs(cur-prev) > 2*math.Pi*80*dt*1.5 { // max slope bound ≈ A·2πf·dt
			t.Fatalf("phase jump at t=%v: %v → %v", tt, prev, cur)
		}
		prev = cur
	}
}

func TestRandomWalkSineValidation(t *testing.T) {
	if _, err := NewRandomWalkSine(1, 60, 1, 70, 50, 10, 0.1, 1); err == nil {
		t.Fatal("fmax < fmin must error")
	}
	if _, err := NewRandomWalkSine(1, 40, 1, 50, 70, 10, 0.1, 1); err == nil {
		t.Fatal("f0 outside bounds must error")
	}
	if _, err := NewRandomWalkSine(1, 60, 1, 50, 70, -1, 0.1, 1); err == nil {
		t.Fatal("negative horizon must error")
	}
}

func TestRandomWalkDeterminism(t *testing.T) {
	a, _ := NewRandomWalkSine(1, 60, 0.5, 50, 70, 10, 0.1, 99)
	b, _ := NewRandomWalkSine(1, 60, 0.5, 50, 70, 10, 0.1, 99)
	for tt := 0.0; tt < 10; tt += 0.7 {
		if a.Accel(tt) != b.Accel(tt) {
			t.Fatal("same seed must reproduce the walk")
		}
	}
}

// All sources must satisfy the Source interface.
var (
	_ Source = Sine{}
	_ Source = (*SteppedSine)(nil)
	_ Source = DriftingSine{}
	_ Source = MultiTone{}
	_ Source = (*NoisySine)(nil)
	_ Source = (*RandomWalkSine)(nil)
)

func BenchmarkRandomWalkAccel(b *testing.B) {
	src, err := NewRandomWalkSine(0.7, 60, 0.2, 50, 70, 100, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += src.Accel(float64(i) * 1e-3)
	}
	_ = sink
}

// TestSourcesArePure pins the Source contract: Accel and DominantFreq are
// pure functions of t, so repeated and out-of-order calls return
// bit-identical values. Engines that sample once for many design points
// (sim.RunBatch, a sim.Drives replay) rely on it.
func TestSourcesArePure(t *testing.T) {
	stepped, err := NewSteppedSine(0.5, []FreqStep{{At: 0, Freq: 45}, {At: 1.2, Freq: 47}, {At: 2.5, Freq: 44}})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewNoisySine(Sine{Amplitude: 0.5, Freq: 45}, 0.1, 4, 1e-3, 3)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := NewRandomWalkSine(0.5, 45, 0.05, 40, 50, 4, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]Source{
		"Sine":           Sine{Amplitude: 0.5, Freq: 45, Phase: 0.2},
		"SteppedSine":    stepped,
		"DriftingSine":   DriftingSine{Amplitude: 0.5, StartFreq: 44, Rate: 0.5, MinFreq: 40, MaxFreq: 46},
		"MultiTone":      MultiTone{Tones: []Sine{{Amplitude: 0.5, Freq: 45}, {Amplitude: 0.1, Freq: 90}}},
		"NoisySine":      noisy,
		"RandomWalkSine": walk,
	}
	const n = 4000
	ts := make([]float64, n)
	for i := range ts {
		ts[i] = float64(i) * 1e-3 * 1.0005 // lands between lattice points too
	}
	for name, src := range sources {
		accel := make([]uint64, n)
		freq := make([]uint64, n)
		for i, tt := range ts {
			accel[i] = math.Float64bits(src.Accel(tt))
			freq[i] = math.Float64bits(src.DominantFreq(tt))
		}
		// Backwards, then a stride permutation (7919 is prime to n), each
		// point sampled twice in a row.
		for pass, order := range [][]int{reversed(n), strided(n, 7919)} {
			for _, i := range order {
				for rep := 0; rep < 2; rep++ {
					if got := math.Float64bits(src.Accel(ts[i])); got != accel[i] {
						t.Fatalf("%s pass %d: Accel(%v) = %#x, first call %#x", name, pass, ts[i], got, accel[i])
					}
					if got := math.Float64bits(src.DominantFreq(ts[i])); got != freq[i] {
						t.Fatalf("%s pass %d: DominantFreq(%v) = %#x, first call %#x", name, pass, ts[i], got, freq[i])
					}
				}
			}
		}
	}
}

func reversed(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = n - 1 - i
	}
	return idx
}

func strided(n, stride int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i * stride % n
	}
	return idx
}
