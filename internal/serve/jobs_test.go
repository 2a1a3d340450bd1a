package serve

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sim"
)

// blockingProblem returns a factory whose simulator stalls until release
// is closed (or aborts when quit is closed), with responses that vary
// across the design so the fit stays well-posed. It makes queue and
// shutdown behaviour deterministic without timing games.
func blockingProblem(release, quit chan struct{}) ProblemFactory {
	return func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			select {
			case <-release:
			case <-quit:
				return nil, errAborted
			}
			r := &sim.Result{
				AvgHarvestedPower: d.Node.Period * 1e-6,
				StoredEnergyEnd:   d.Store.C,
				FinalStoreV:       3,
				UptimeFraction:    d.Store.C * 5,
				NetEnergyMargin:   1e-3 * d.Node.Period,
			}
			r.Node.Packets = int(d.Node.Period)
			r.Node.FirstTxTime = d.Node.Period / 2
			return r, nil
		}
		return p
	}
}

var errAborted = &abortError{}

type abortError struct{}

func (*abortError) Error() string { return "engine aborted by test" }

func waitState(t *testing.T, m *JobManager, id string, want JobState) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if JobState(j.State) == want {
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, j.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobQueueBounds: one job runs, queueCap jobs wait, the next is
// rejected with ErrQueueFull; at shutdown the queued job is cancelled
// while the in-flight one drains to completion.
func TestJobQueueBounds(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 1})

	req := BuildRequest{Model: "q", Design: "ccf", Horizon: 1}
	j1, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j1.ID, JobRunning)

	j2, err := m.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), req); err != ErrQueueFull {
		t.Fatalf("third submit: got %v, want ErrQueueFull", err)
	}

	// Shutdown in the background: it cancels the queued job immediately
	// and waits for the running one, which we then release.
	done := make(chan struct{})
	go func() {
		m.Shutdown(30 * time.Second)
		close(done)
	}()
	waitState(t, m, j2.ID, JobCanceled)
	close(release)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown never drained")
	}
	if got := waitState(t, m, j1.ID, JobDone); got.Runs == 0 {
		t.Fatalf("drained job carries no stats: %+v", got)
	}
	if _, ok := reg.Get("q"); !ok {
		t.Fatal("drained build was not registered")
	}

	// Post-shutdown submits are refused.
	if _, err := m.Submit(context.Background(), req); err == nil {
		t.Fatal("submit after shutdown must fail")
	}
	// Shutdown is idempotent.
	m.Shutdown(time.Second)
}

// TestShutdownCancelsInFlight: a build that outlives the grace period has
// its context cancelled and reports canceled, not done.
func TestShutdownCancelsInFlight(t *testing.T) {
	release := make(chan struct{}) // never closed: the build can't finish on its own
	quit := make(chan struct{})

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 1})
	j, err := m.Submit(context.Background(), BuildRequest{Model: "c", Design: "ccf", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, j.ID, JobRunning)

	done := make(chan struct{})
	go func() {
		m.Shutdown(20 * time.Millisecond)
		close(done)
	}()
	// Past the grace period the manager cancels the build context; the
	// stalled engine calls are then aborted by the test hook, standing in
	// for a simulator run finishing after the cancel.
	time.Sleep(60 * time.Millisecond)
	close(quit)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("shutdown hung on a cancelled build")
	}
	got, ok := m.Get(j.ID)
	if !ok {
		t.Fatal("job lost")
	}
	if got.State != string(JobCanceled) {
		t.Fatalf("job state %s, want canceled (%+v)", got.State, got)
	}
	if _, ok := reg.Get("c"); ok {
		t.Fatal("cancelled build must not register a model")
	}
}

// TestSubmitDefaults: zero-valued request fields pick up the documented
// defaults and an empty model name is rejected.
func TestSubmitDefaults(t *testing.T) {
	release := make(chan struct{})
	quit := make(chan struct{})
	defer close(quit)
	close(release) // run immediately

	reg := NewRegistry()
	m := NewJobManager(JobManagerConfig{Registry: reg, Problem: blockingProblem(release, quit), QueueCap: 0})
	defer m.Shutdown(10 * time.Second)

	if _, err := m.Submit(context.Background(), BuildRequest{}); err == nil {
		t.Fatal("empty model name must be rejected")
	}
	j, err := m.Submit(context.Background(), BuildRequest{Model: "d", Horizon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if j.Design != "ccf" || j.Excite != 0.6 {
		t.Fatalf("defaults not applied: %+v", j)
	}
	final := waitState(t, m, j.ID, JobDone)
	if final.Runs != 27 { // CCF, k=4, 3 centre runs
		t.Fatalf("CCF design size %d, want 27", final.Runs)
	}
}
