package core

import (
	"context"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// countingRunner runs every request (no cache) and counts the Run calls,
// plus those handed the package-level sim.RunFast rather than a drive
// table's method.
type countingRunner struct {
	runs, plain atomic.Int64
}

func (r *countingRunner) Run(_ context.Context, _ string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	r.runs.Add(1)
	if reflect.ValueOf(fn).Pointer() == reflect.ValueOf(sim.RunFast).Pointer() {
		r.plain.Add(1)
	}
	return fn(d, cfg)
}

// TestRunDesignDrivesKeepRunnerTraffic: with the built-in fast engine,
// RunDesign hands the runner a drive table's RunFast. The runner sees the
// same Run calls as with an explicit sim.RunFast engine (which runs no
// table), and Y is bit-identical to per-point ResponsesAt.
func TestRunDesignDrivesKeepRunnerTraffic(t *testing.T) {
	d, err := doe.CentralComposite(4, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}

	table := StandardProblem(0.6, 10)
	tr := &countingRunner{}
	table.Runner = tr
	got, err := table.RunDesign(context.Background(), d, 2)
	if err != nil {
		t.Fatal(err)
	}

	plain := StandardProblem(0.6, 10)
	plain.Engine, plain.EngineName = sim.RunFast, EngineFast
	pr := &countingRunner{}
	plain.Runner = pr
	if _, err := plain.RunDesign(context.Background(), d, 2); err != nil {
		t.Fatal(err)
	}

	if n := int64(d.N()); tr.runs.Load() != n || pr.runs.Load() != n {
		t.Fatalf("Run calls: %d with the table, %d without, want %d each", tr.runs.Load(), pr.runs.Load(), n)
	}
	if tr.plain.Load() != 0 || pr.plain.Load() != int64(d.N()) {
		t.Fatalf("plain sim.RunFast engines: %d with the table (want 0), %d without (want %d)",
			tr.plain.Load(), pr.plain.Load(), d.N())
	}

	single := StandardProblem(0.6, 10)
	single.Runner = simcache.Direct{}
	for i, coded := range d.Runs {
		want, err := single.ResponsesAt(context.Background(), coded)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range single.Responses {
			if math.Float64bits(want[id]) != math.Float64bits(got.Y[id][i]) {
				t.Fatalf("run %d %s: RunDesign %v, ResponsesAt %v", i, id, got.Y[id][i], want[id])
			}
		}
	}
}
