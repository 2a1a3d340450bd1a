package sim

import (
	"testing"

	"repro/internal/tuner"
	"repro/internal/vibration"
)

func benchSource(d Design) vibration.Source {
	return vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
}

// BenchmarkRunFast measures one second of simulated time on the fast
// linearized state-space engine (the unit of cost for every DoE run).
func BenchmarkRunFast(b *testing.B) {
	d := DefaultDesign()
	cfg := Config{Horizon: 1, Source: benchSource(d)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFast(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunReference measures the same second on the Newton-Raphson
// reference engine — the denominator of the paper's speedup claim.
func BenchmarkRunReference(b *testing.B) {
	d := DefaultDesign()
	cfg := Config{Horizon: 1, Source: benchSource(d)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunReference(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFastTuned adds the tuning controller (estimator + actuator +
// occasional state-space rebuilds).
func BenchmarkRunFastTuned(b *testing.B) {
	d := DefaultDesign()
	tc := tuner.DefaultConfig()
	tc.Interval = 0.2
	d.Tuner = &tc
	cfg := Config{Horizon: 1, Source: benchSource(d)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFast(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFastReplay measures the same second replayed from a recorded
// drive (see Drives): the slow side alone, the cost of every design point
// after the second that shares an open-loop drive.
func BenchmarkRunFastReplay(b *testing.B) {
	d := DefaultDesign()
	cfg := Config{Horizon: 1, Source: benchSource(d)}
	if err := prepare(d, &cfg); err != nil {
		b.Fatal(err)
	}
	rs := newResetStream(stepCount(cfg))
	if _, err := runFast(d, cfg, rs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay(d, cfg, rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFastRecord measures the same second while recording its drive
// into a fresh reset stream (see Drives): what the run that records a drive
// pays on top of BenchmarkRunFast.
func BenchmarkRunFastRecord(b *testing.B) {
	d := DefaultDesign()
	cfg := Config{Horizon: 1, Source: benchSource(d)}
	if err := prepare(d, &cfg); err != nil {
		b.Fatal(err)
	}
	nSteps := stepCount(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runFast(d, cfg, newResetStream(nSteps)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatch16 measures ten seconds of 16 lockstep lanes: slow-side
// variants of the default design at resonance, so all lanes share one
// model group and the loop is measured at K>1.
func BenchmarkRunBatch16(b *testing.B) {
	designs := slowSideVariants(DefaultDesign(), 16)
	cfg := Config{Horizon: 10, Source: benchSource(designs[0])}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatch(designs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayLanes8 measures the same second replayed for eight
// slow-side variants in one lockstep unit (see Drives.Plan): compare with
// eight times BenchmarkRunFastReplay for what the shared reset-stream
// decode and the interleaved slow sides save.
func BenchmarkReplayLanes8(b *testing.B) {
	designs := slowSideVariants(DefaultDesign(), 8)
	cfg := Config{Horizon: 1, Source: benchSource(designs[0])}
	if err := prepare(designs[0], &cfg); err != nil {
		b.Fatal(err)
	}
	rs := newResetStream(stepCount(cfg))
	if _, err := runFast(designs[0], cfg, rs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayLanes(designs, cfg, rs); err != nil {
			b.Fatal(err)
		}
	}
}
