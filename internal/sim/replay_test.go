package sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/vibration"
)

// recordDrive runs d in full with cfg (prepared), recording its drive.
func recordDrive(t testing.TB, d Design, cfg *Config) *resetStream {
	t.Helper()
	if err := prepare(d, cfg); err != nil {
		t.Fatal(err)
	}
	rs := newResetStream(stepCount(*cfg))
	if _, err := runFast(d, *cfg, rs); err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestReplayLanesMatchRunFast: every lane of a lockstep replay unit is
// bit-identical to RunFast of its design, counters included, over the
// untuned cases of the equivalence grid plus two charging cases: the grid's
// stores sit above the pump's open-circuit voltage, so without the latter
// the pump's share of the slow side would go untested.
func TestReplayLanesMatchRunFast(t *testing.T) {
	var cases []equivalenceCase
	for _, tc := range equivalenceGrid(t) {
		if tc.d.Tuner == nil && !tc.cfg.RecordWaveforms {
			cases = append(cases, tc) // only these share a drive
		}
	}
	low := DefaultDesign()
	low.InitialStoreV = 1
	low.Store.C = 0.05
	f0 := low.Harv.ResonantFreq(low.Harv.GapMax)
	cases = append(cases,
		equivalenceCase{"charging/resonant", low, Config{Horizon: 5, Source: vibration.Sine{Amplitude: 0.6, Freq: f0}}},
		equivalenceCase{"charging/detuned", low, Config{Horizon: 5, Source: vibration.Sine{Amplitude: 0.8, Freq: f0 + 0.5}}},
	)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			designs := slowSideVariants(tc.d, 6)
			cfg := tc.cfg
			rs := recordDrive(t, designs[0], &cfg)
			got, err := replayLanes(designs, cfg, rs)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range designs {
				want, err := RunFast(d, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
			}
			if strings.HasPrefix(tc.name, "charging/") && got[len(got)-1].HarvestedEnergy <= 0 {
				t.Fatalf("last lane harvested %g J: the pump never ran", got[len(got)-1].HarvestedEnergy)
			}
		})
	}
}

// TestReplayLanesDropout: a lane that fails mid-replay leaves the unit
// without disturbing the other lanes, which stay bit-identical to RunFast;
// a lane whose slow side cannot be built never enters the loop.
func TestReplayLanesDropout(t *testing.T) {
	base := DefaultDesign()
	cfg := Config{Horizon: 2, Source: vibration.Sine{Amplitude: 0.6, Freq: base.Harv.ResonantFreq(base.Harv.GapMax)}}
	designs := slowSideVariants(base, 5)
	bad := designs[3]
	bad.Policy = nil // newSlowSide rejects it
	designs[3] = bad
	rs := recordDrive(t, designs[0], &cfg)
	nSteps := stepCount(cfg)

	hookErr := errors.New("injected lane failure")
	replayStepHook = func(step, lane int) error {
		if lane == 1 && step == nSteps/2 {
			return hookErr
		}
		return nil
	}
	defer func() { replayStepHook = nil }()

	got, err := replayLanes(designs, cfg, rs)
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("err = %v, want exactly 2 joined lane errors", err)
	}
	for _, e := range joined.Unwrap() {
		var le *LaneError
		if !errors.As(e, &le) || (le.Lane != 1 && le.Lane != 3) {
			t.Fatalf("unexpected lane error %v", e)
		}
		if le.Lane == 1 && !errors.Is(e, hookErr) {
			t.Fatalf("lane 1: %v, want the injected failure", e)
		}
	}
	for i, d := range designs {
		if i == 1 || i == 3 {
			if got[i] != nil {
				t.Errorf("lane %d: a failed lane must have a nil result", i)
			}
			continue
		}
		want, err := RunFast(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
	}
}

// TestDrivesPlanOrder: Plan hands out each drive's recorder first (request
// 0 leading), then one leader per replay unit, then the rest; equal
// designs share a unit lane and the recorder's twins join no unit.
func TestDrivesPlanOrder(t *testing.T) {
	base := DefaultDesign()
	f0 := base.Harv.ResonantFreq(base.Harv.GapMax)
	srcA := vibration.Sine{Amplitude: 0.6, Freq: f0}
	srcB := vibration.Sine{Amplitude: 0.6, Freq: f0 + 1}
	variants := slowSideVariants(base, 9)
	var (
		designs []Design
		cfgs    []Config
	)
	add := func(d Design, src vibration.Source) {
		designs = append(designs, d)
		cfgs = append(cfgs, Config{Horizon: 1, Source: src})
	}
	add(variants[0], srcA) // 0: recorder of A
	for _, d := range variants[1:] {
		add(d, srcA) // 1..8: eight distinct followers of A
	}
	add(variants[0], srcB) // 9: recorder of B
	add(variants[0], srcA) // 10: twin of A's recorder
	add(variants[1], srcB) // 11: B's only follower
	add(variants[5], srcA) // 12: twin of follower 5
	var table Drives
	order := table.Plan(designs, cfgs)
	// A has 8 distinct followers: two units of 4 (leaders 1 and 5); B has
	// one unit of 1 (leader 11).
	want := []int{0, 9, 1, 5, 11, 10, 2, 3, 4, 12, 6, 7, 8}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for _, i := range order {
		got, err := table.RunFast(designs[i], cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		wantRes, err := RunFast(designs[i], cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		compareLane(t, fmt.Sprintf("request%d", i), wantRes, got)
	}
	if st := table.Stats(); st != (DriveStats{Recorded: 2, Replayed: 11, Units: 3}) {
		t.Fatalf("stats %+v", st)
	}
}

// FuzzReplayLanes compares every lane of a lockstep replay unit against
// RunFast byte-for-byte over fuzzed slow-side variants of one drive:
// reporting period, transmit threshold, store size, leakage and initial
// charge, around a fuzzed excitation.
func FuzzReplayLanes(f *testing.F) {
	f.Add(5.0, 3.0, 0.1, 4e6, 3.3, 47.0, uint8(4))
	f.Add(2.0, 3.4, 0.02, 0.0, 2.9, 45.0, uint8(8))
	f.Add(15.0, 2.7, 0.4, 1e5, 0.5, 52.0, uint8(1))
	f.Fuzz(func(t *testing.T, period, vth, capC, leakR, v0, freq float64, lanes uint8) {
		if !(period > 0.1 && period < 30) || !(vth > 1 && vth < 5) || !(capC > 1e-3 && capC < 2) ||
			!(leakR == 0 || (leakR > 1e3 && leakR < 1e9)) || !(v0 >= 0 && v0 < 5.5) ||
			!(freq > 20 && freq < 80) || lanes == 0 || lanes > 8 {
			t.Skip()
		}
		designs := make([]Design, lanes)
		for i := range designs {
			d := DefaultDesign()
			d.Node.Period = period * (1 + 0.1*float64(i))
			d.Policy = node.ThresholdPolicy{VThreshold: vth + 0.03*float64(i%3)}
			d.Store.C = capC * (1 + 0.05*float64(i%2))
			d.Store.LeakR = leakR
			d.InitialStoreV = v0
			designs[i] = d
		}
		cfg := Config{Horizon: 1.5, Source: vibration.Sine{Amplitude: 0.6, Freq: freq}}
		rs := recordDrive(t, designs[0], &cfg)
		got, err := replayLanes(designs, cfg, rs)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range designs {
			want, err := RunFast(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareLane(t, fmt.Sprintf("lane%d", i), want, got[i])
		}
	})
}
