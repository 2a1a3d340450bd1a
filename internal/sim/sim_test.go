package sim

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

func resonantSource(d Design) vibration.Source {
	return vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}
}

func TestDefaultDesignValidates(t *testing.T) {
	if err := DefaultDesign().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBrokenDesigns(t *testing.T) {
	d := DefaultDesign()
	d.Policy = nil
	if err := d.Validate(); err == nil {
		t.Fatal("nil policy must be rejected")
	}
	d = DefaultDesign()
	d.InitialStoreV = -1
	if err := d.Validate(); err == nil {
		t.Fatal("negative store voltage must be rejected")
	}
	d = DefaultDesign()
	d.Harv.Mass = 0
	if err := d.Validate(); err == nil {
		t.Fatal("bad harvester must be rejected")
	}
	bad := tuner.DefaultConfig()
	bad.Interval = 0
	d = DefaultDesign()
	d.Tuner = &bad
	if err := d.Validate(); err == nil {
		t.Fatal("bad tuner config must be rejected")
	}
}

// TestValidateRejectsNonFinite: setting any float field of the design —
// harvester, multiplier, store, regulator, node, link, initial gap and
// store voltage — to NaN, +Inf or -Inf fails Validate, so a non-finite
// parameter can never reach a simulation and come back as a NaN response.
func TestValidateRejectsNonFinite(t *testing.T) {
	// floatFields lists the paths of every float64 field reachable through
	// the design's struct fields (Policy and Tuner are interfaces or
	// pointers and have validators of their own).
	var floatFields func(prefix []int, typ reflect.Type, name string) [][]int
	var names []string
	floatFields = func(prefix []int, typ reflect.Type, name string) [][]int {
		var out [][]int
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			path := append(append([]int(nil), prefix...), i)
			switch f.Type.Kind() {
			case reflect.Float64:
				out = append(out, path)
				names = append(names, name+f.Name)
			case reflect.Struct:
				out = append(out, floatFields(path, f.Type, name+f.Name+".")...)
			}
		}
		return out
	}
	paths := floatFields(nil, reflect.TypeOf(Design{}), "")
	// 12 harvester + 3 multiplier + 3 store + 4 regulator + 9 node + 3 link
	// + InitialGap + InitialStoreV.
	if len(paths) != 36 {
		t.Fatalf("found %d float fields, want 36: %v", len(paths), names)
	}
	for i, path := range paths {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			d := DefaultDesign()
			reflect.ValueOf(&d).Elem().FieldByIndex(path).SetFloat(bad)
			if err := d.Validate(); err == nil {
				t.Errorf("%s = %v: Validate accepted it", names[i], bad)
			} else if !strings.Contains(err.Error(), "finite") {
				t.Errorf("%s = %v: error %q does not say the value must be finite", names[i], bad, err)
			}
		}
	}
	// A NaN reporting period used to validate and simulate to NaN.
	d := DefaultDesign()
	d.Node.Period = math.NaN()
	if _, err := RunFast(d, Config{Horizon: 1, Source: resonantSource(d)}); err == nil {
		t.Fatal("RunFast with a NaN node period must fail validation")
	}
}

// TestConfigValidation also pins RunFast's error shape: RunFast is a
// one-lane batch, but its errors must be the bare cause, never wrapped in
// the batch's *LaneError.
func TestConfigValidation(t *testing.T) {
	d := DefaultDesign()
	bare := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s must error", what)
		}
		if errors.As(err, new(*LaneError)) {
			t.Fatalf("%s: RunFast leaked a lane wrapper: %v", what, err)
		}
	}
	bad := d
	bad.Policy = nil
	cfg := Config{Horizon: 1, Source: resonantSource(d)}
	_, err := RunFast(bad, cfg)
	bare("bad design", err)
	if want := bad.Validate(); err.Error() != want.Error() {
		t.Fatalf("bad design: RunFast error %q, want Validate's %q", err, want)
	}
	// runFast, behind RunFast's prepare, meets the bad design as a lane
	// setup failure; it too must hand back the bare Validate error.
	_, err = runFast(bad, cfg, nil)
	bare("bad design lane", err)
	if want := bad.Validate(); err.Error() != want.Error() {
		t.Fatalf("bad design lane: runFast error %q, want Validate's %q", err, want)
	}
	_, err = RunFast(d, Config{Horizon: 0, Source: resonantSource(d)})
	bare("zero horizon", err)
	_, err = RunFast(d, Config{Horizon: 1})
	bare("missing source", err)
}

func TestFastRunHarvestsAtResonance(t *testing.T) {
	d := DefaultDesign()
	res, err := RunFast(d, Config{Horizon: 30, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	if res.HarvestedEnergy <= 0 {
		t.Fatal("no energy harvested at resonance")
	}
	// µW-scale average power expected.
	if res.AvgHarvestedPower < 1e-6 || res.AvgHarvestedPower > 5e-3 {
		t.Fatalf("harvested power %v W implausible", res.AvgHarvestedPower)
	}
	if res.FinalStoreV <= 0 || res.FinalStoreV > d.Store.VMax {
		t.Fatalf("final store voltage %v outside physical range", res.FinalStoreV)
	}
	if res.Steps == 0 {
		t.Fatal("no steps counted")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed time not recorded")
	}
}

func TestOffResonanceHarvestsLess(t *testing.T) {
	d := DefaultDesign()
	f0 := d.Harv.ResonantFreq(d.Harv.GapMax)
	on, err := RunFast(d, Config{Horizon: 20, Source: vibration.Sine{Amplitude: 0.6, Freq: f0}})
	if err != nil {
		t.Fatal(err)
	}
	off, err := RunFast(d, Config{Horizon: 20, Source: vibration.Sine{Amplitude: 0.6, Freq: f0 + 15}})
	if err != nil {
		t.Fatal(err)
	}
	if off.HarvestedEnergy >= on.HarvestedEnergy {
		t.Fatalf("off-resonance harvest %v ≥ on-resonance %v", off.HarvestedEnergy, on.HarvestedEnergy)
	}
}

func TestNodeRunsAndTransmits(t *testing.T) {
	d := DefaultDesign()
	d.Node.Period = 5
	res, err := RunFast(d, Config{Horizon: 60, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Measurements == 0 {
		t.Fatal("node never measured despite a charged store")
	}
	if res.Node.Packets == 0 {
		t.Fatal("node never transmitted despite store above threshold")
	}
	if res.UptimeFraction <= 0.5 {
		t.Fatalf("uptime fraction %v, want mostly up", res.UptimeFraction)
	}
}

func TestEnergyConservationInvariant(t *testing.T) {
	// Store energy change must equal harvested − consumed − leakage. With
	// leakage disabled the balance is exact to integration tolerance.
	d := DefaultDesign()
	d.Store.LeakR = 0
	res, err := RunFast(d, Config{Horizon: 30, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	e0 := d.Store.Energy(d.InitialStoreV)
	gained := res.StoredEnergyEnd - e0
	balance := res.HarvestedEnergy - res.ConsumedEnergy
	if math.Abs(gained-balance) > 0.02*(math.Abs(balance)+1e-9)+1e-4 {
		t.Fatalf("energy balance violated: ΔE=%v vs harvested−consumed=%v", gained, balance)
	}
}

func TestDepletedStoreShutsNodeDown(t *testing.T) {
	d := DefaultDesign()
	d.InitialStoreV = 0 // empty store
	// Off-resonance weak excitation: nearly no harvest.
	src := vibration.Sine{Amplitude: 0.05, Freq: 20}
	res, err := RunFast(d, Config{Horizon: 30, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Packets != 0 {
		t.Fatalf("node transmitted %d packets with no energy", res.Node.Packets)
	}
	if res.UptimeFraction > 0.01 {
		t.Fatalf("uptime fraction %v, want ≈0", res.UptimeFraction)
	}
}

func TestReferenceMatchesFastOnStoreVoltage(t *testing.T) {
	// R-T1 accuracy half: both engines must agree on the slow (store)
	// dynamics to within a few percent.
	d := DefaultDesign()
	cfg := Config{Horizon: 5, Source: resonantSource(d), RecordWaveforms: true, Decimate: 100}
	fast, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.StoreV) != len(ref.StoreV) {
		t.Fatalf("waveform lengths differ: %d vs %d", len(fast.StoreV), len(ref.StoreV))
	}
	rmse := stats.RMSE(fast.StoreV, ref.StoreV)
	scale := stats.RMS(ref.StoreV)
	if rmse > 0.05*scale {
		t.Fatalf("store-voltage RMSE %v vs scale %v: engines disagree", rmse, scale)
	}
	// Harvested energy within 10 %.
	if ref.HarvestedEnergy == 0 {
		t.Fatal("reference harvested nothing")
	}
	relErr := math.Abs(fast.HarvestedEnergy-ref.HarvestedEnergy) / ref.HarvestedEnergy
	if relErr > 0.10 {
		t.Fatalf("harvested-energy mismatch %v%%", 100*relErr)
	}
}

func TestReferenceCountsNewtonWork(t *testing.T) {
	d := DefaultDesign()
	res, err := RunReference(d, Config{Horizon: 0.5, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewtonIters == 0 || res.FuncEvals == 0 {
		t.Fatalf("reference engine must count Newton work: %+v", res)
	}
	if res.NewtonIters < res.Steps {
		t.Fatalf("Newton iterations (%d) must be ≥ sub-steps (%d)", res.NewtonIters, res.Steps)
	}
}

func TestFastIsFasterThanReference(t *testing.T) {
	d := DefaultDesign()
	cfg := Config{Horizon: 2, Source: resonantSource(d)}
	fast, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunReference(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.Elapsed >= ref.Elapsed {
		t.Fatalf("fast engine (%v) not faster than reference (%v)", fast.Elapsed, ref.Elapsed)
	}
	// The paper's claim is ~two orders of magnitude; assert at least one
	// order here to keep the test robust on loaded machines.
	if ratio := float64(ref.Elapsed) / float64(fast.Elapsed); ratio < 10 {
		t.Fatalf("speedup only %.1f×, want ≥10×", ratio)
	}
}

func TestTunerImprovesOffBandHarvest(t *testing.T) {
	// Excitation at 70 Hz, untuned resonance 45 Hz: with the tuner the
	// harvester re-tunes and collects substantially more energy.
	d := DefaultDesign()
	src := vibration.Sine{Amplitude: 0.6, Freq: 70}
	cfg := Config{Horizon: 120, Source: src}

	untuned, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc := tuner.DefaultConfig()
	tc.Interval = 5
	tc.EstimatorWin = 1
	tc.ActuatorSpeed = 0.5e-3
	d.Tuner = &tc
	tuned, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.HarvestedEnergy <= untuned.HarvestedEnergy {
		t.Fatalf("tuned harvest %v ≤ untuned %v", tuned.HarvestedEnergy, untuned.HarvestedEnergy)
	}
	if math.Abs(tuned.FinalResFreq-70) > 2 {
		t.Fatalf("final resonance %v Hz, want ≈70", tuned.FinalResFreq)
	}
	if tuned.TuneEnergy <= 0 || tuned.TuneMoves == 0 {
		t.Fatal("tuning work not accounted")
	}
}

func TestWaveformRecordingDecimation(t *testing.T) {
	d := DefaultDesign()
	cfg := Config{Horizon: 1, Source: resonantSource(d), RecordWaveforms: true, Decimate: 50}
	res, err := RunFast(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantLen := res.Steps / 50
	if len(res.T) < wantLen || len(res.T) > wantLen+1 {
		t.Fatalf("decimated length %d, want ≈%d", len(res.T), wantLen)
	}
	for _, s := range [][]float64{res.StoreV, res.Disp, res.EMF, res.ResFreq} {
		if len(s) != len(res.T) {
			t.Fatal("waveform lengths inconsistent")
		}
	}
	// Without recording, no waveforms are kept.
	res2, err := RunFast(d, Config{Horizon: 1, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.T) != 0 {
		t.Fatal("waveforms recorded without being requested")
	}
}

func TestAdaptivePolicyExtendsLifetime(t *testing.T) {
	// Weak harvest + aggressive duty cycle: the adaptive policy should end
	// with a higher store voltage than always-transmit.
	base := DefaultDesign()
	base.Node.Period = 1.5
	base.InitialStoreV = 3.0
	src := vibration.Sine{Amplitude: 0.2, Freq: 60} // off-resonance, weak
	cfg := Config{Horizon: 120, Source: src}

	always := base
	always.Policy = node.AlwaysTransmit{}
	rA, err := RunFast(always, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := base
	adaptive.Policy = node.AdaptivePolicy{VEmpty: 2.5, VFull: 3.2, MaxScale: 10}
	rB, err := RunFast(adaptive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rB.FinalStoreV <= rA.FinalStoreV {
		t.Fatalf("adaptive final V %v ≤ always %v", rB.FinalStoreV, rA.FinalStoreV)
	}
}

func TestLossyLinkReducesDeliveredPackets(t *testing.T) {
	base := DefaultDesign()
	base.Node.Period = 3
	src := resonantSource(base)
	cfg := Config{Horizon: 60, Source: src}

	ideal, err := RunFast(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lossy := base
	lossy.Link = node.LinkConfig{LossProb: 0.5, MaxRetries: 0, Seed: 5}
	lr, err := RunFast(lossy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Node.Packets >= ideal.Node.Packets {
		t.Fatalf("lossy link delivered %d ≥ ideal %d", lr.Node.Packets, ideal.Node.Packets)
	}
	if lr.Node.LostPackets == 0 {
		t.Fatal("losses not counted")
	}
	// Invalid link rejected by design validation.
	bad := base
	bad.Link = node.LinkConfig{LossProb: 1.5}
	if _, err := RunFast(bad, cfg); err == nil {
		t.Fatal("invalid link must fail validation")
	}
}

func TestEnergyLedgerWithLeakage(t *testing.T) {
	// Full ledger: ΔE_store = harvested − consumed − leaked, with leakage
	// enabled. The leak integral is first-order accurate, so allow a few
	// percent.
	d := DefaultDesign()
	d.Store.LeakR = 2e4 // aggressive leak so the term is visible
	res, err := RunFast(d, Config{Horizon: 30, Source: resonantSource(d)})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeakEnergy <= 0 {
		t.Fatal("leakage not accounted")
	}
	e0 := d.Store.Energy(d.InitialStoreV)
	gained := res.StoredEnergyEnd - e0
	balance := res.HarvestedEnergy - res.ConsumedEnergy - res.LeakEnergy
	if math.Abs(gained-balance) > 0.05*(math.Abs(gained)+math.Abs(balance)+1e-9) {
		t.Fatalf("ledger violated: ΔE=%v vs balance=%v (leak %v)", gained, balance, res.LeakEnergy)
	}
	// Node share is part of the consumed total.
	if res.NodeEnergy < 0 || res.NodeEnergy > res.ConsumedEnergy+1e-12 {
		t.Fatalf("node share %v outside consumed %v", res.NodeEnergy, res.ConsumedEnergy)
	}
}
