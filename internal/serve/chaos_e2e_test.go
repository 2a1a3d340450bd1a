package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// chaosResult mirrors blockingProblem's varied finite responses so the
// surface fit stays well-posed under fault injection.
func chaosResult(d sim.Design) *sim.Result {
	r := &sim.Result{
		AvgHarvestedPower: d.Node.Period * 1e-6,
		StoredEnergyEnd:   d.Store.C,
		FinalStoreV:       3,
		UptimeFraction:    d.Store.C * 5,
		NetEnergyMargin:   1e-3 * d.Node.Period,
	}
	r.Node.Packets = int(d.Node.Period)
	r.Node.FirstTxTime = d.Node.Period / 2
	return r
}

// chaosProblem wires a fault injector between the retry layer and a fast
// fake engine. The injector is shared across factory calls so its call
// counter spans the whole build, exactly like cmd/ehdoed wires it.
func chaosProblem(inj *fault.Injector, retry core.RetryPolicy) ProblemFactory {
	return func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			return chaosResult(d), nil
		}
		// An unnamed custom engine bypasses the Runner (it can't be cached);
		// name it so the injector stays in the path.
		p.EngineName = "chaos-fake"
		p.Runner = inj.Wrap(simcache.Direct{})
		p.Retry = retry
		return p
	}
}

// metricValue extracts one un-labelled counter sample from a /metrics page.
func metricValue(t *testing.T, page, name string) float64 {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.e+-]+)$`).FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("metrics page missing sample %s:\n%s", name, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("parsing %s sample %q: %v", name, m[1], err)
	}
	return v
}

// TestChaosBuildE2E is the acceptance run for the fault-tolerant execution
// layer: a build under seeded chaos (transient errors, panics, injected
// latency) must still converge to a registered model via retries, count
// every recovery, and expose the counts on /metrics. Workers=1 makes the
// injector's call-consumption order — and therefore the whole run —
// deterministic for a fixed seed.
func TestChaosBuildE2E(t *testing.T) {
	inj := fault.New(fault.Config{
		Seed:       42,
		PTransient: 0.25,
		PPanic:     0.15,
		PLatency:   0.3,
		Latency:    2 * time.Millisecond,
	})
	retry := core.RetryPolicy{MaxAttempts: 10, BaseDelay: 200 * time.Microsecond, MaxDelay: time.Millisecond}
	srv, ts := newTestServer(t, Config{Problem: chaosProblem(inj, retry), QueueCap: 4})

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "chaos", Design: "ccf", Horizon: 1, Seed: 1, Workers: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build under chaos rejected: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)

	final := waitState(t, srv.Jobs(), accepted.Job.ID, JobDone)
	if final.Retries == 0 {
		t.Fatalf("chaos build saw no retries — injector not in the path? %+v", final)
	}
	if final.PanicsRecovered == 0 {
		t.Fatalf("chaos build recovered no panics — containment not exercised: %+v", final)
	}
	if _, ok := srv.Registry().Get("chaos"); !ok {
		t.Fatal("chaos build must still register its model")
	}

	_, mbody := get(t, ts.URL+"/metrics")
	page := string(mbody)
	if v := metricValue(t, page, "ehdoed_run_retries_total"); v < float64(final.Retries) {
		t.Fatalf("ehdoed_run_retries_total %g < job retries %d", v, final.Retries)
	}
	if v := metricValue(t, page, "ehdoed_run_panics_recovered_total"); v < float64(final.PanicsRecovered) {
		t.Fatalf("ehdoed_run_panics_recovered_total %g < job panics %d", v, final.PanicsRecovered)
	}
	if !strings.Contains(page, `ehdoed_jobs_total{state="done"} 1`) {
		t.Fatalf("metrics must count the finished job by state:\n%s", page)
	}
}

// TestPanicNeverEscapesDaemon: with p(panic)=1 every attempt panics, the
// retry budget exhausts, and the job must fail cleanly — panic message and
// design-point index in the error, code "panic" — while the daemon itself
// keeps serving.
func TestPanicNeverEscapesDaemon(t *testing.T) {
	inj := fault.New(fault.Config{Seed: 7, PPanic: 1})
	retry := core.RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond}
	srv, ts := newTestServer(t, Config{Problem: chaosProblem(inj, retry), QueueCap: 4})

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "doomed", Design: "ccf", Horizon: 1, Workers: 1,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)

	final := waitState(t, srv.Jobs(), accepted.Job.ID, JobFailed)
	if final.ErrorCode != jobCodePanic {
		t.Fatalf("error code %q, want %q (%+v)", final.ErrorCode, jobCodePanic, final)
	}
	if !strings.Contains(final.Error, "panicked") || !strings.Contains(final.Error, "run 0") {
		t.Fatalf("job error must name the panic and its design point: %q", final.Error)
	}
	if final.PanicsRecovered == 0 {
		t.Fatalf("failed job must still count its recovered panics: %+v", final)
	}

	// The daemon survived: liveness and the serving path still answer.
	hresp, _ := get(t, ts.URL+"/healthz")
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after contained panics: %d", hresp.StatusCode)
	}
}

// hangRunner blocks until the run context is done — a simulator that never
// returns, for exercising deadlines end to end.
type hangRunner struct{}

func (hangRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	<-ctx.Done()
	return nil, context.Cause(ctx)
}

// TestJobTimeoutE2E: a build whose simulator hangs must terminate at its
// requested deadline with code "timeout", not wedge the worker forever.
func TestJobTimeoutE2E(t *testing.T) {
	factory := func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Runner = hangRunner{}
		return p
	}
	srv, ts := newTestServer(t, Config{Problem: factory, QueueCap: 4})

	resp, body := postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "stuck", Design: "ccf", Horizon: 1, Workers: 1, TimeoutS: 0.05,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var accepted struct {
		Job JobView `json:"job"`
	}
	unmarshal(t, body, &accepted)
	if accepted.Job.TimeoutS != 0.05 {
		t.Fatalf("accepted job must echo its timeout: %+v", accepted.Job)
	}

	final := waitState(t, srv.Jobs(), accepted.Job.ID, JobFailed)
	if final.ErrorCode != jobCodeTimeout {
		t.Fatalf("error code %q, want %q (%+v)", final.ErrorCode, jobCodeTimeout, final)
	}
	if !strings.Contains(final.Error, "timeout") {
		t.Fatalf("job error must say it timed out: %q", final.Error)
	}
	// The manager keeps serving: a negative timeout is still rejected at
	// submit time (i.e. the worker loop didn't wedge).
	resp, body = postJSON(t, ts.URL+"/v1/build", BuildRequest{
		Model: "bad", Design: "ccf", Horizon: 1, TimeoutS: -1,
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative timeout_s must be rejected: %d %s", resp.StatusCode, body)
	}
}

// TestEffectiveTimeoutCap: a request may tighten the configured job
// deadline but never relax it.
func TestEffectiveTimeoutCap(t *testing.T) {
	m := &JobManager{jobTimeout: 50 * time.Millisecond}
	if got := m.effectiveTimeout(0); got != 50*time.Millisecond {
		t.Fatalf("no request timeout: want config bound, got %s", got)
	}
	if got := m.effectiveTimeout(10); got != 50*time.Millisecond {
		t.Fatalf("request above the cap must be clamped, got %s", got)
	}
	if got := m.effectiveTimeout(0.01); got != 10*time.Millisecond {
		t.Fatalf("request below the cap must win, got %s", got)
	}
	unbounded := &JobManager{}
	if got := unbounded.effectiveTimeout(2); got != 2*time.Second {
		t.Fatalf("unbounded config takes the request timeout, got %s", got)
	}
	if got := unbounded.effectiveTimeout(0); got != 0 {
		t.Fatalf("no bounds anywhere means no deadline, got %s", got)
	}
}

// TestHandlerPanicRecovered: a panicking handler must yield the uniform
// 500 envelope (code "internal"), count as an error, and leave the server
// able to answer the next request.
func TestHandlerPanicRecovered(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(time.Second)
	h := srv.instrument("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler status %d, want 500", rec.Code)
	}
	var e errorBody
	unmarshal(t, rec.Body.Bytes(), &e)
	if e.Code != codeInternal || e.Error != "internal server error" {
		t.Fatalf("panic must map to the uniform internal envelope, got %+v", e)
	}
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("recovered response must still carry its request ID")
	}

	// The middleware recorded the failure and the server still serves.
	page := string(srv.Metrics().Render())
	if !strings.Contains(page, `ehdoed_request_errors_total{endpoint="boom"} 1`) {
		t.Fatalf("panicking request must be counted as an error:\n%s", page)
	}
	rec2 := httptest.NewRecorder()
	srv.instrument("ok", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})(rec2, httptest.NewRequest("GET", "/ok", nil))
	if rec2.Code != http.StatusNoContent {
		t.Fatalf("server wedged after a recovered panic: %d", rec2.Code)
	}
}

// TestValidateNaNRejected: a simulator producing NaN must fail /v1/validate
// with the typed numeric_invalid code, not feed NaN into accuracy stats.
func TestValidateNaNRejected(t *testing.T) {
	factory := func(amp, horizon float64) *core.Problem {
		p := core.StandardProblem(amp, horizon)
		p.Engine = func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
			r := chaosResult(d)
			r.AvgHarvestedPower = math.NaN()
			return r, nil
		}
		return p
	}
	srv, ts := newTestServer(t, Config{Problem: factory})
	srv.Registry().Set("m", fixture(t))

	resp, body := postJSON(t, ts.URL+"/v1/validate", ValidateRequest{Model: "m", N: 2})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("NaN validation: %d %s", resp.StatusCode, body)
	}
	var e errorBody
	unmarshal(t, body, &e)
	if e.Code != codeNumericInvalid {
		t.Fatalf("error code %q, want %q (%s)", e.Code, codeNumericInvalid, body)
	}
}

// TestValidateClientClosed: a validation whose client has already gone
// away answers 499 client_closed, recognized through the cancellation
// wrapped in the design run's error.
func TestValidateClientClosed(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	srv.Registry().Set("m", fixture(t))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/validate",
		strings.NewReader(`{"model": "m", "n": 2, "horizon_s": 1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.handleValidate(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("cancelled validation: %d %s", rec.Code, rec.Body)
	}
	var e errorBody
	unmarshal(t, rec.Body.Bytes(), &e)
	if e.Code != codeClientClosed {
		t.Fatalf("error code %q, want %q", e.Code, codeClientClosed)
	}
}
