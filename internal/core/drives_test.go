package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/doe"
	"repro/internal/obs"
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

// TestRunDesignRecordsEachDriveOnce: the 27-run CCF of StandardProblem
// (freq_off at -1, 0 and +1: three drives) simulates exactly three runs in
// full, each recording a drive, and replays the other 24. With two
// workers the plan starts every recording before any replay; with four, a
// replay unit's leader is handed out while its drive is still being
// recorded, and waits for it rather than simulating it again.
func TestRunDesignRecordsEachDriveOnce(t *testing.T) {
	d, err := doe.CentralComposite(4, doe.CCF, 3)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 6; rep++ {
		workers := 2 + 2*(rep%2)
		var logs bytes.Buffer
		lg, err := obs.NewLogger(&logs, "json", "info")
		if err != nil {
			t.Fatal(err)
		}
		p := StandardProblem(0.6, 10)
		p.Runner = &countingRunner{}
		if _, err := p.RunDesign(obs.WithLogger(context.Background(), lg), d, workers); err != nil {
			t.Fatal(err)
		}
		var finished struct {
			Msg      string `json:"msg"`
			Recorded int    `json:"drives_recorded"`
			Replayed int    `json:"runs_replayed"`
			Full     int    `json:"runs_full"`
		}
		for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
			if err := json.Unmarshal([]byte(line), &finished); err != nil {
				t.Fatal(err)
			}
			if finished.Msg == "design run finished" {
				break
			}
		}
		if finished.Msg != "design run finished" {
			t.Fatalf("no design run finished line in:\n%s", logs.String())
		}
		if finished.Recorded != 3 || finished.Full != 0 || finished.Replayed != d.N()-3 {
			t.Fatalf("%d workers: recorded %d drives, %d runs in full, %d replayed; want 3, 0, %d",
				workers, finished.Recorded, finished.Full, finished.Replayed, d.N()-3)
		}
	}
}

// BenchmarkRunDesignFresh measures one fresh-cache design run of the
// paper's flow: the 27-run CCF of StandardProblem at a 60 s horizon on the
// default worker pool, against a new simulation cache per op.
func BenchmarkRunDesignFresh(b *testing.B) {
	d, err := doe.CentralComposite(4, doe.CCF, 3)
	if err != nil {
		b.Fatal(err)
	}
	p := StandardProblem(0.6, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Runner = simcache.New(simcache.Options{})
		if _, err := p.RunDesign(context.Background(), d, 0); err != nil {
			b.Fatal(err)
		}
	}
}
