package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/simcache"
)

// pollEvery is how often a client polls its build job. It bounds
// client.observe_lag_ms from above and costs one cheap handler call per
// tick, so it stays a small share of a build's 50–100 ms.
const pollEvery = 2 * time.Millisecond

// harness is one in-process ehdoed server, listening on a loopback port
// with its default configuration (build queue, admission control, memo),
// plus the typed client the workloads drive it through.
type harness struct {
	srv       *serve.Server
	cache     *simcache.Cache
	hs        *http.Server
	transport *http.Transport
	api       *apiclient.Client
	tr        *tracer // nil in an untraced run
	served    chan struct{}

	mu     sync.Mutex
	builds []built // every build this server ran, in completion order
}

// startHarness starts a server and a client that opens at most conns
// connections. With a tracer, the server's handler and its simulation
// runner are wrapped so the calls into them are timed.
func startHarness(tr *tracer, conns int) (*harness, error) {
	cache := simcache.New(simcache.Options{})
	cfg := serve.Config{Cache: cache}
	if tr != nil {
		cfg.Problem = func(amp, horizon float64) *core.Problem {
			p := core.StandardProblem(amp, horizon)
			p.Runner = &tracedRunner{under: cache, tr: tr}
			return p
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(0)
		return nil, fmt.Errorf("starting server: %w", err)
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	h := &harness{
		srv:    srv,
		cache:  cache,
		hs:     &http.Server{Handler: handler},
		tr:     tr,
		served: make(chan struct{}),
		transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln)
	}()
	// One attempt per call: a refused or failed request is counted, not
	// retried out of sight.
	h.api = apiclient.New("http://"+ln.Addr().String(), apiclient.Options{
		HTTP:        &http.Client{Transport: h.transport, Timeout: 60 * time.Second},
		MaxAttempts: 1,
	})
	return h, nil
}

// close drains the job runner, stops the HTTP server and waits for it.
func (h *harness) close() {
	h.srv.Shutdown(5 * time.Second)
	h.hs.Close()
	<-h.served
	h.transport.CloseIdleConnections()
}

// call issues one request under trace ID id, recording a client span in
// a traced run. A nil body sends none; a json.RawMessage is sent as is.
func (h *harness) call(ctx context.Context, id, op, method, path string, body any) (*apiclient.Result, error) {
	ctx = obs.WithTraceID(ctx, id)
	start := time.Now()
	res, err := h.api.Do(ctx, method, path, body)
	if h.tr != nil {
		h.tr.record(span{ID: id, Name: spanClient, Op: op, Start: h.tr.at(start), End: h.tr.now()})
	}
	return res, err
}

// post issues a JSON call and decodes a 2xx answer into out.
func (h *harness) post(ctx context.Context, id, op, path string, in, out any) error {
	res, err := h.call(ctx, id, op, http.MethodPost, path, in)
	return decode(res, err, out)
}

func decode(res *apiclient.Result, err error, out any) error {
	if err != nil {
		return err
	}
	if res.Status < 200 || res.Status > 299 {
		return fmt.Errorf("status %d: %s", res.Status, strings.TrimSpace(string(res.Body)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(res.Body, out)
}

// built is one build as its client saw it.
type built struct {
	view    serve.JobView
	start   time.Time // submit sent
	sawDone time.Time // the poll that saw the job terminal returned
}

func (b built) latency() time.Duration { return b.sawDone.Sub(b.start) }

// build submits req under trace ID id and polls the job until it is
// terminal. The returned error covers transport and API failures; a job
// that ends failed is reported through its view.
func (h *harness) build(ctx context.Context, id string, req serve.BuildRequest) (built, error) {
	b := built{start: time.Now()}
	var acc serve.BuildAccepted
	if err := h.post(ctx, id, "submit", "/v1/build", req, &acc); err != nil {
		return b, fmt.Errorf("submitting build %s: %w", id, err)
	}
	view := acc.Job
	for view.State == string(serve.JobQueued) || view.State == string(serve.JobRunning) {
		time.Sleep(pollEvery)
		res, err := h.call(ctx, id, "poll", http.MethodGet, "/v1/jobs/"+view.ID, nil)
		if err := decode(res, err, &view); err != nil {
			return b, fmt.Errorf("polling build %s: %w", id, err)
		}
	}
	b.view, b.sawDone = view, time.Now()
	if h.tr != nil {
		h.traceJob(b)
	}
	h.mu.Lock()
	h.builds = append(h.builds, b)
	h.mu.Unlock()
	return b, nil
}

// traceJob records the client's view of a build plus the job's queue
// and run spans, reconstructed from the JobView timestamps.
func (h *harness) traceJob(b built) {
	t, v := h.tr, b.view
	t.record(span{ID: v.TraceID, Name: spanBuild, Op: v.Design, Start: t.at(b.start), End: t.at(b.sawDone)})
	enq, st, fin, ok := stamps(v)
	if !ok {
		return
	}
	t.record(span{ID: v.TraceID, Name: spanQueue, Start: t.at(enq), End: t.at(st)})
	t.record(span{ID: v.TraceID, Name: spanJob, Op: v.Design, Start: t.at(st), End: t.at(fin)})
}

// jobTimes splits a finished job's server-side timeline, in ms: queue
// wait (started − enqueued), run (finished − started) and the client's
// observe lag (saw done − finished).
func jobTimes(b built) (wait, run, lag float64, ok bool) {
	enq, st, fin, ok := stamps(b.view)
	if !ok {
		return 0, 0, 0, false
	}
	return ms(st.Sub(enq)), ms(fin.Sub(st)), ms(b.sawDone.Sub(fin)), true
}

// stamps parses a job's enqueued, started and finished timestamps.
func stamps(v serve.JobView) (enq, st, fin time.Time, ok bool) {
	enq, err1 := time.Parse(time.RFC3339Nano, v.EnqueuedAt)
	st, err2 := time.Parse(time.RFC3339Nano, v.StartedAt)
	fin, err3 := time.Parse(time.RFC3339Nano, v.FinishedAt)
	return enq, st, fin, errors.Join(err1, err2, err3) == nil
}

// admissionWaitMS reads the mean queued wait for an admission slot over
// every limited endpoint from /metrics, plus the number of observations.
func (h *harness) admissionWaitMS(ctx context.Context) (float64, float64, error) {
	res, err := h.call(ctx, "metrics", "metrics", http.MethodGet, "/metrics", nil)
	if err := decode(res, err, nil); err != nil {
		return 0, 0, fmt.Errorf("reading /metrics: %w", err)
	}
	var sum, count float64
	for _, line := range strings.Split(string(res.Body), "\n") {
		name, rest, ok := strings.Cut(line, "{")
		if !ok {
			continue
		}
		_, val, ok := strings.Cut(rest, "} ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "ehdoed_admission_queued_wait_seconds_sum":
			sum += v
		case "ehdoed_admission_queued_wait_seconds_count":
			count += v
		}
	}
	return ratio(sum*1e3, count), count, nil
}
