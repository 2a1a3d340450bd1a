package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/tuner"
	"repro/internal/vibration"
)

// sameBits reports the first field where two results differ, comparing
// every float by its bit pattern — so NaN (Node.FirstTxTime when no packet
// is sent) equals NaN and -0 differs from +0 — and ignoring Elapsed.
func sameBits(want, got *sim.Result) string {
	w, g := *want, *got
	w.Elapsed, g.Elapsed = 0, 0
	return diffBits("Result", reflect.ValueOf(w), reflect.ValueOf(g))
}

func diffBits(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path,
				a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffBits(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: length %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffBits(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		panic("sameBits: unhandled kind " + a.Kind().String() + " at " + path)
	}
	return ""
}

// standardRequests resolves every point of the CCF, BBD and CCI designs of
// StandardProblem to its concrete (design, config) simulation request.
func standardRequests(t *testing.T, excite, horizon float64) ([]sim.Design, []sim.Config) {
	t.Helper()
	p := core.StandardProblem(excite, horizon)
	k := len(p.Factors)
	ccf, err := doe.CentralComposite(k, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	cci, err := doe.CentralComposite(k, doe.CCI, 3)
	if err != nil {
		t.Fatal(err)
	}
	bbd, err := doe.BoxBehnken(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	var (
		designs []sim.Design
		cfgs    []sim.Config
	)
	for _, d := range []*doe.Design{ccf, bbd, cci} {
		for _, coded := range d.Runs {
			nat, err := doe.DecodeRun(p.Factors, coded)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := p.Build(nat)
			if err != nil {
				t.Fatal(err)
			}
			designs = append(designs, sc.Design)
			cfgs = append(cfgs, sim.Config{Horizon: p.Horizon, DtSlow: p.DtSlow, Source: sc.Source})
		}
	}
	return designs, cfgs
}

// TestDrivesMatchRunFast: every CCF, BBD and CCI point of StandardProblem
// at two excitations, run through one drive table, is bit-identical to a
// plain RunFast — the points that record a drive and the many more that
// replay one alike.
func TestDrivesMatchRunFast(t *testing.T) {
	var table sim.Drives
	runs := 0
	for _, excite := range []float64{0.3, 0.6} {
		designs, cfgs := standardRequests(t, excite, 10)
		for i := range designs {
			got, err := table.RunFast(designs[i], cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.RunFast(designs[i], cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if d := sameBits(want, got); d != "" {
				t.Fatalf("excite %g point %d: %s", excite, i, d)
			}
			runs++
		}
	}
	// CCF and BBD put freq_off at -1, 0, +1 and CCI adds ±1/√(√16) = ±0.5:
	// five drives per excitation, so most of the runs above were replays.
	if n, _ := table.Published(); n != 10 {
		t.Fatalf("published %d drives over %d runs, want 10", n, runs)
	}
}

// TestDrivesConcurrentMatchRunFast: one table shared by several goroutines
// still answers every point bit-identically to RunFast.
func TestDrivesConcurrentMatchRunFast(t *testing.T) {
	designs, cfgs := standardRequests(t, 0.6, 5)
	var (
		table sim.Drives
		wg    sync.WaitGroup
	)
	const workers = 4
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(designs); i += workers {
				got, err := table.RunFast(designs[i], cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				want, err := sim.RunFast(designs[i], cfgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if d := sameBits(want, got); d != "" {
					t.Errorf("point %d: %s", i, d)
				}
			}
		}(w)
	}
	wg.Wait()
	if n, _ := table.Published(); n == 0 {
		t.Fatal("no drive was published")
	}
}

// TestDrivesFallbacksNeverStore: a tuned design, a waveform-recording run
// and a source that cannot key a map (MultiTone holds a slice) all run
// plain RunFast however often they are seen, and store no drive.
func TestDrivesFallbacksNeverStore(t *testing.T) {
	base := sim.DefaultDesign()
	f0 := base.Harv.ResonantFreq(base.Harv.GapMax)
	sine := vibration.Sine{Amplitude: 0.6, Freq: f0}
	tuned := base
	tc := tuner.DefaultConfig()
	tc.Interval = 0.2
	tuned.Tuner = &tc
	multi := vibration.MultiTone{Tones: []vibration.Sine{sine, {Amplitude: 0.1, Freq: 2 * f0}}}
	cases := []struct {
		name string
		d    sim.Design
		cfg  sim.Config
	}{
		{"tuned", tuned, sim.Config{Horizon: 2, Source: sine}},
		{"waveforms", base, sim.Config{Horizon: 2, Source: sine, RecordWaveforms: true}},
		{"multitone", base, sim.Config{Horizon: 2, Source: multi}},
	}
	for _, tc := range cases {
		want, err := sim.RunFast(tc.d, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var table sim.Drives
		for i := 0; i < 4; i++ {
			got, err := table.RunFast(tc.d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d := sameBits(want, got); d != "" {
				t.Fatalf("%s sighting %d: %s", tc.name, i+1, d)
			}
		}
		if n, _ := table.Published(); n != 0 {
			t.Fatalf("%s: stored %d drives, want none", tc.name, n)
		}
	}
}

// TestDrivesRecordOnFirstSighting: the first sighting publishes the drive,
// later ones reuse it, and invalid requests fail exactly as RunFast fails
// them without storing anything.
func TestDrivesRecordOnFirstSighting(t *testing.T) {
	d := sim.DefaultDesign()
	cfg := sim.Config{Horizon: 1, Source: vibration.Sine{Amplitude: 0.6, Freq: 45}}
	var table sim.Drives
	for sighting, want := range []int{1, 1, 1} {
		if _, err := table.RunFast(d, cfg); err != nil {
			t.Fatal(err)
		}
		if n, _ := table.Published(); n != want {
			t.Fatalf("after sighting %d: %d drives published, want %d", sighting+1, n, want)
		}
	}
	bad := d
	bad.Policy = nil
	_, want := sim.RunFast(bad, cfg)
	if _, err := table.RunFast(bad, cfg); err == nil || err.Error() != want.Error() {
		t.Fatalf("invalid design: got %v, want %v", err, want)
	}
	_, want = sim.RunFast(d, sim.Config{Source: cfg.Source})
	if _, err := table.RunFast(d, sim.Config{Source: cfg.Source}); err == nil || err.Error() != want.Error() {
		t.Fatalf("zero horizon: got %v, want %v", err, want)
	}
	if n, _ := table.Published(); n != 1 {
		t.Fatalf("after invalid requests: %d drives published, want 1", n)
	}
}

// TestDriveMemoryBound: a 60 s drive at resonance and 1 ms steps retains
// at most 160 KB (its raw EMF trace would be 480 KB).
func TestDriveMemoryBound(t *testing.T) {
	d := sim.DefaultDesign()
	cfg := sim.Config{Horizon: 60, Source: vibration.Sine{Amplitude: 0.6, Freq: d.Harv.ResonantFreq(d.Harv.GapMax)}}
	var table sim.Drives
	if _, err := table.RunFast(d, cfg); err != nil {
		t.Fatal(err)
	}
	n, bytes := table.Published()
	if n != 1 {
		t.Fatalf("published %d drives, want 1", n)
	}
	t.Logf("60 s drive retains %d bytes", bytes)
	if bytes > 160_000 {
		t.Fatalf("60 s drive retains %d bytes, want ≤ 160000", bytes)
	}
}
