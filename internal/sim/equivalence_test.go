package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/node"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// This file proves the hot-path overhaul did not change a single bit of
// any response: runFastSeed below is a faithful replica of the
// pre-optimization RunFast — la.Matrix-backed update matrices read through
// bounds-checked At, a fresh ZOH discretization on every drift past
// tolerance (no memo), per-step math.Exp for the envelope and leak decays,
// append-grown waveform traces, and a per-step ResonantFreq drift check.
// The optimized engine must reproduce it bit-identically (with a 1e-12
// relative fallback for cross-architecture FMA differences).

// seedFastModel is the pre-optimization fastModel: per-region *la.Matrix
// pairs, rebuilt from scratch on every call.
type seedFastModel struct {
	d   Design
	rin float64
	dt  float64
	gap float64
	ad  [3]*la.Matrix
	bd  [3]*la.Matrix
}

func newSeedFastModel(d Design, dt float64) *seedFastModel {
	return &seedFastModel{d: d, rin: d.Mult.InputR, dt: dt}
}

func (m *seedFastModel) rebuild(gap float64) error {
	m.gap = gap
	h := m.d.Harv
	k := h.EffectiveStiffness(gap)
	l := h.CoilL
	if l <= 0 {
		l = 1e-3
	}
	rTot := h.CoilR + m.rin
	build := func(kEff, fOff float64) (*la.Matrix, *la.Matrix, error) {
		a := la.NewMatrixFrom(3, 3, []float64{
			0, 1, 0,
			-kEff / h.Mass, -h.DampingC / h.Mass, -h.Gamma / h.Mass,
			0, h.Gamma / l, -rTot / l,
		})
		b := la.NewMatrixFrom(3, 2, []float64{
			0, 0,
			-1, fOff / h.Mass,
			0, 0,
		})
		return la.DiscretizeZOH(a, b, m.dt)
	}
	var err error
	if m.ad[regionFree], m.bd[regionFree], err = build(k, 0); err != nil {
		return err
	}
	if m.ad[regionUpper], m.bd[regionUpper], err = build(k+h.StopK, h.StopK*h.MaxDisp); err != nil {
		return err
	}
	if m.ad[regionLower], m.bd[regionLower], err = build(k+h.StopK, -h.StopK*h.MaxDisp); err != nil {
		return err
	}
	return nil
}

// regionOf is the seed engine's end-stop region test.
func regionOf(x, limit float64) region {
	switch {
	case x > limit:
		return regionUpper
	case x < -limit:
		return regionLower
	default:
		return regionFree
	}
}

func (m *seedFastModel) step(y []float64, accel float64) {
	r := regionOf(y[0], m.d.Harv.MaxDisp)
	ad, bd := m.ad[r], m.bd[r]
	var out [3]float64
	for i := 0; i < 3; i++ {
		out[i] = ad.At(i, 0)*y[0] + ad.At(i, 1)*y[1] + ad.At(i, 2)*y[2] +
			bd.At(i, 0)*accel + bd.At(i, 1)
	}
	y[0], y[1], y[2] = out[0], out[1], out[2]
}

// seedSlowSide replicates the pre-optimization slow side: the decay
// factors are recomputed with math.Exp on every step.
type seedSlowSide struct {
	d      Design
	nd     *node.Node
	ctrl   *tuner.Controller
	gap    float64
	vs     float64
	regOn  bool
	env    float64
	envTau float64

	harvested float64
	consumed  float64
	nodeDrawn float64
	leaked    float64
}

func newSeedSlowSide(d Design) (*seedSlowSide, error) {
	nd, err := node.NewWithLink(d.Node, d.Policy, d.Link)
	if err != nil {
		return nil, err
	}
	gap := d.InitialGap
	if gap == 0 {
		gap = d.Harv.GapMax
	}
	gap = d.Harv.ClampGap(gap)
	s := &seedSlowSide{d: d, nd: nd, gap: gap, vs: d.InitialStoreV, envTau: 0.05}
	if d.Tuner != nil {
		ctrl, err := tuner.New(*d.Tuner, d.Harv, gap)
		if err != nil {
			return nil, err
		}
		s.ctrl = ctrl
	}
	return s, nil
}

func (s *seedSlowSide) step(dt, emf, excFreq float64) float64 {
	decay := math.Exp(-dt / s.envTau)
	s.env *= decay
	if a := math.Abs(emf); a > s.env {
		s.env = a
	}
	vin := s.env * s.d.Mult.InputR / (s.d.Harv.CoilR + s.d.Mult.InputR)
	ichg := s.d.Mult.ChargeCurrent(vin, excFreq, s.vs)
	s.harvested += ichg * s.vs * dt
	var iTune float64
	if s.ctrl != nil {
		p := s.ctrl.Step(dt, emf, s.vs)
		if p > 0 && s.vs > 0 {
			iTune = p / s.vs
		}
		s.gap = s.ctrl.Gap()
	}
	s.regOn = s.d.Reg.NextEnabled(s.regOn, s.vs)
	iRail := s.nd.Step(dt, s.regOn, s.vs)
	pLoad := iRail * s.d.Node.VRail
	iReg := s.d.Reg.InputCurrent(s.regOn, s.vs, pLoad)
	s.consumed += (iReg + iTune) * s.vs * dt
	s.nodeDrawn += iReg * s.vs * dt
	if s.d.Store.LeakR > 0 {
		s.leaked += s.vs * s.vs / s.d.Store.LeakR * dt
	}
	s.vs = s.d.Store.Step(s.vs, dt, ichg, iReg+iTune)
	return s.gap
}

// runFastSeed is the pre-optimization RunFast, responses only (no Elapsed
// or rebuild accounting).
func runFastSeed(d Design, cfg Config) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	slow, err := newSeedSlowSide(d)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	rec := &recorder{cfg: cfg, d: d, res: res}

	model := newSeedFastModel(d, cfg.DtSlow)
	if err := model.rebuild(slow.gap); err != nil {
		return nil, err
	}
	const rebuildTolHz = 0.05

	y := []float64{0, 0, 0}
	nSteps := int(math.Ceil(cfg.Horizon / cfg.DtSlow))
	for k := 0; k < nSteps; k++ {
		t := float64(k) * cfg.DtSlow
		accel := cfg.Source.Accel(t + cfg.DtSlow/2)
		model.step(y, accel)
		res.Steps++

		emf := d.Harv.EMF(y[1])
		gap := slow.step(cfg.DtSlow, emf, cfg.Source.DominantFreq(t))
		if math.Abs(d.Harv.ResonantFreq(gap)-d.Harv.ResonantFreq(model.gap)) > rebuildTolHz {
			if err := model.rebuild(gap); err != nil {
				return nil, err
			}
		}
		rec.record(t+cfg.DtSlow, slow.vs, y[0], emf, gap)
	}

	res.HarvestedEnergy = slow.harvested
	res.AvgHarvestedPower = slow.harvested / cfg.Horizon
	res.ConsumedEnergy = slow.consumed
	res.NodeEnergy = slow.nodeDrawn
	res.LeakEnergy = slow.leaked
	res.NetEnergyMargin = slow.harvested - slow.consumed
	res.FinalStoreV = slow.vs
	res.StoredEnergyEnd = slow.d.Store.Energy(slow.vs)
	res.Node = slow.nd.Counters()
	res.UptimeFraction = res.Node.UpTime / cfg.Horizon
	if slow.ctrl != nil {
		res.TuneEnergy = slow.ctrl.Energy()
		res.TuneMoves = slow.ctrl.Moves()
		res.TuneInBandFrac = slow.ctrl.InBandFraction()
	}
	res.FinalResFreq = slow.d.Harv.ResonantFreq(slow.gap)
	return res, nil
}

// sameFloat reports bit-identity, with a 1e-12 relative tolerance fallback
// so an architecture that fuses multiply-adds differently between the two
// code shapes cannot fail the suite.
func sameFloat(a, b float64) bool {
	if math.Float64bits(a) == math.Float64bits(b) {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

func compareResults(t *testing.T, name string, want, got *Result) {
	t.Helper()
	scalars := []struct {
		field     string
		want, got float64
	}{
		{"HarvestedEnergy", want.HarvestedEnergy, got.HarvestedEnergy},
		{"AvgHarvestedPower", want.AvgHarvestedPower, got.AvgHarvestedPower},
		{"ConsumedEnergy", want.ConsumedEnergy, got.ConsumedEnergy},
		{"NodeEnergy", want.NodeEnergy, got.NodeEnergy},
		{"LeakEnergy", want.LeakEnergy, got.LeakEnergy},
		{"NetEnergyMargin", want.NetEnergyMargin, got.NetEnergyMargin},
		{"StoredEnergyEnd", want.StoredEnergyEnd, got.StoredEnergyEnd},
		{"FinalStoreV", want.FinalStoreV, got.FinalStoreV},
		{"UptimeFraction", want.UptimeFraction, got.UptimeFraction},
		{"TuneEnergy", want.TuneEnergy, got.TuneEnergy},
		{"TuneInBandFrac", want.TuneInBandFrac, got.TuneInBandFrac},
		{"FinalResFreq", want.FinalResFreq, got.FinalResFreq},
		{"Node.UpTime", want.Node.UpTime, got.Node.UpTime},
	}
	for _, s := range scalars {
		if !sameFloat(s.want, s.got) {
			t.Errorf("%s: %s diverged: seed %v (%#x) vs optimized %v (%#x)",
				name, s.field, s.want, math.Float64bits(s.want), s.got, math.Float64bits(s.got))
		}
	}
	ints := []struct {
		field     string
		want, got int
	}{
		{"Steps", want.Steps, got.Steps},
		{"TuneMoves", want.TuneMoves, got.TuneMoves},
		{"Node.Measurements", want.Node.Measurements, got.Node.Measurements},
		{"Node.Packets", want.Node.Packets, got.Node.Packets},
		{"Node.LostPackets", want.Node.LostPackets, got.Node.LostPackets},
	}
	for _, s := range ints {
		if s.want != s.got {
			t.Errorf("%s: %s diverged: seed %d vs optimized %d", name, s.field, s.want, s.got)
		}
	}
	waves := []struct {
		field     string
		want, got []float64
	}{
		{"T", want.T, got.T},
		{"StoreV", want.StoreV, got.StoreV},
		{"Disp", want.Disp, got.Disp},
		{"EMF", want.EMF, got.EMF},
		{"ResFreq", want.ResFreq, got.ResFreq},
	}
	for _, w := range waves {
		if len(w.want) != len(w.got) {
			t.Errorf("%s: %s length diverged: %d vs %d", name, w.field, len(w.want), len(w.got))
			continue
		}
		for i := range w.want {
			if !sameFloat(w.want[i], w.got[i]) {
				t.Errorf("%s: %s[%d] diverged: %v vs %v", name, w.field, i, w.want[i], w.got[i])
				break
			}
		}
	}
}

// equivalenceCase is one design point of the golden grid.
type equivalenceCase struct {
	name string
	d    Design
	cfg  Config
}

// equivalenceGrid covers the R-T1 grid (default design over the speedup
// horizons and step sizes) and the R-T6 scenario grid (environmental,
// structural tuned, healthcare), plus a deliberately aggressive tuning
// transient that forces heavy rebuild traffic through the gap memo.
func equivalenceGrid(t *testing.T) []equivalenceCase {
	t.Helper()
	var cases []equivalenceCase

	// R-T1: default design, resonant excitation, quick-config horizons.
	d := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
	for _, h := range []float64{1, 2} {
		cases = append(cases, equivalenceCase{
			name: fmt.Sprintf("t1/h=%g", h),
			d:    d,
			cfg:  Config{Horizon: h, Source: src, RecordWaveforms: true, Decimate: 100},
		})
	}
	// A1-style step sizes exercise the recorder prealloc at non-default
	// decimations.
	for _, dt := range []float64{0.5e-3, 2e-3} {
		cases = append(cases, equivalenceCase{
			name: fmt.Sprintf("t1/dt=%g", dt),
			d:    d,
			cfg:  Config{Horizon: 1, DtSlow: dt, Source: src, RecordWaveforms: true, Decimate: 10},
		})
	}

	// R-T6 environmental: steady 45 Hz, slow reporting.
	env := DefaultDesign()
	env.Node.Period = 15
	env.InitialStoreV = 3.3
	cases = append(cases, equivalenceCase{
		name: "t6/environmental",
		d:    env,
		cfg:  Config{Horizon: 10, Source: vibration.Sine{Amplitude: 0.5, Freq: 45}},
	})

	// R-T6 structural: wandering excitation with the tuning controller.
	rw, err := vibration.NewRandomWalkSine(0.7, 60, 0.2, 55, 65, 12, 0.5, 41)
	if err != nil {
		t.Fatal(err)
	}
	structural := DefaultDesign()
	structural.Node.Period = 5
	structural.InitialStoreV = 3.3
	tc := tuner.DefaultConfig()
	tc.Interval = 2
	tc.EstimatorWin = 1
	structural.Tuner = &tc
	cases = append(cases, equivalenceCase{
		name: "t6/structural-tuned",
		d:    structural,
		cfg:  Config{Horizon: 12, Source: rw, RecordWaveforms: true, Decimate: 200},
	})

	// R-T6 healthcare: noisy tone, fast reporting.
	ns, err := vibration.NewNoisySine(vibration.Sine{Amplitude: 0.8, Freq: 46}, 0.1, 10, 1e-3, 42)
	if err != nil {
		t.Fatal(err)
	}
	health := DefaultDesign()
	health.Node.Period = 2
	health.InitialStoreV = 3.3
	cases = append(cases, equivalenceCase{
		name: "t6/healthcare",
		d:    health,
		cfg:  Config{Horizon: 10, Source: ns},
	})

	// Aggressive tuning transient: a stepped excitation far off resonance
	// with a fast, frequently-deciding tuner drives many rebuilds, so the
	// memo and the drift-check memoization both carry real traffic.
	stepped, err := vibration.NewSteppedSine(0.6, []vibration.FreqStep{
		{At: 0, Freq: 70}, {At: 8, Freq: 50}, {At: 16, Freq: 70},
	})
	if err != nil {
		t.Fatal(err)
	}
	sweep := DefaultDesign()
	sweep.InitialStoreV = 3.5
	stc := tuner.DefaultConfig()
	stc.Interval = 1
	stc.EstimatorWin = 0.5
	stc.ActuatorSpeed = 2e-3
	sweep.Tuner = &stc
	cases = append(cases, equivalenceCase{
		name: "tuning-transient",
		d:    sweep,
		cfg:  Config{Horizon: 24, Source: stepped},
	})

	// Hunting steady state: a tone half-way between two zero-crossing
	// quanta (45.25 Hz seen through a 2 s window alternates between 90 and
	// 91 crossings) makes the controller ping-pong between two exact target
	// gaps forever. The actuator retraces the same deterministic gap path
	// each excursion, so nearly every rebuild request repeats an earlier
	// gap bit-for-bit — the traffic the memo exists for.
	hunt := DefaultDesign()
	hunt.InitialStoreV = 3.5
	htc := tuner.DefaultConfig()
	htc.Interval = 2
	htc.EstimatorWin = 2
	htc.DeadbandHz = 0.1
	hunt.Tuner = &htc
	cases = append(cases, equivalenceCase{
		name: "tuning-hunt",
		d:    hunt,
		cfg:  Config{Horizon: 60, Source: vibration.Sine{Amplitude: 0.6, Freq: 45.25}},
	})

	return cases
}

func TestRunFastMatchesSeedEngineBitwise(t *testing.T) {
	for _, tc := range equivalenceGrid(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := runFastSeed(tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunFast(tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, tc.name, want, got)
		})
	}
}

// TestGapMemoCarriesRebuildTraffic pins the memo's reason to exist: the
// hunting steady state must answer the majority of its rebuild requests
// from the memo — while (above) staying bit-identical to the memo-free
// seed engine.
func TestGapMemoCarriesRebuildTraffic(t *testing.T) {
	var tc *equivalenceCase
	for _, c := range equivalenceGrid(t) {
		if c.name == "tuning-hunt" {
			c := c
			tc = &c
			break
		}
	}
	if tc == nil {
		t.Fatal("tuning-hunt case missing from the equivalence grid")
	}
	res, err := RunFast(tc.d, tc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilds < 3 {
		t.Fatalf("hunting scenario performed only %d rebuilds; too tame to test the memo", res.Rebuilds)
	}
	if res.RebuildHits <= res.Rebuilds {
		t.Fatalf("gap memo hits (%d) should dominate misses (%d) while the tuner ping-pongs between two exact targets",
			res.RebuildHits, res.Rebuilds)
	}
	t.Logf("rebuild misses=%d memo hits=%d", res.Rebuilds, res.RebuildHits)
}

// TestFastModelStepZeroAllocs pins the hot loop's allocation budget at
// exactly zero allocations per step.
func TestFastModelStepZeroAllocs(t *testing.T) {
	d := DefaultDesign()
	m := &fastModel{g: newModelGroup(d.Harv, d.Mult.InputR, 1e-3)}
	if err := m.rebuild(d.Harv.GapMax); err != nil {
		t.Fatal(err)
	}
	var y [3]float64
	allocs := testing.AllocsPerRun(1000, func() {
		m.step(&y, 0.6)
	})
	if allocs != 0 {
		t.Fatalf("fastModel.step allocates %.1f objects/op, want 0", allocs)
	}
}

// TestRunFastSteadyStateAllocs bounds the whole-run allocation count: all
// remaining allocations are per-run setup (node, workspace, result), so a
// run must stay under a small constant regardless of horizon.
func TestRunFastSteadyStateAllocs(t *testing.T) {
	d := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
	for _, h := range []float64{1, 4} {
		cfg := Config{Horizon: h, Source: src}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := RunFast(d, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Fatalf("RunFast at horizon %gs allocates %.0f objects/run, want setup-only (≤64)", h, allocs)
		}
	}
}
