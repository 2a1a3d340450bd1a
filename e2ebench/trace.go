package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// Span names, one per layer boundary the traced run times from outside
// the program: a whole build as the client sees it (submit until it
// observes the job terminal), each client call, the server handler, the
// job queue and run (reconstructed from the JobView timestamps), the
// simcache.Runner seam and the engine function handed through it.
const (
	spanBuild   = "client.build"
	spanClient  = "client"
	spanHandler = "serve.handler"
	spanQueue   = "jobs.queue"
	spanJob     = "jobs.run"
	spanRunner  = "simcache.run"
	spanEngine  = "sim.engine"
)

// span is one timed call. Spans of one build or request share ID (the
// X-Request-ID the client sent, which the server adopts as the trace ID
// of the job and its simulations); Parent is the Seq of the enclosing
// span, 0 for a root.
type span struct {
	ID     string `json:"id"`
	Seq    int64  `json:"seq"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and counts the work done at the simcache
// seam; it writes the spans out once, when the traced run ends.
type tracer struct {
	epoch time.Time
	seq   atomic.Int64

	mu    sync.Mutex
	spans []span

	runCalls    atomic.Int64 // Runner.Run calls
	engineCalls atomic.Int64 // engine runs (cache misses)
	rebuilds    atomic.Int64 // sim.Result.Rebuilds over engine runs
	lookups     atomic.Int64 // Lookup calls (the batch prepass)
	peels       atomic.Int64 // Lookup calls answered from the cache
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// at converts a wall-clock instant to the tracer's time base.
func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *tracer) now() int64 { return t.at(time.Now()) }

func (t *tracer) record(s span) {
	if s.Seq == 0 {
		s.Seq = t.seq.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far with parents resolved.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	linkParents(out)
	return out
}

// wrapHandler times every call into the server's handler.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{ID: r.Header.Get("X-Request-ID"), Name: spanHandler, Op: r.URL.Path, Start: start, End: t.now()})
	})
}

// tracedRunner wraps the server's simulation cache at the simcache.Runner
// seam. It times each Run and the engine function passed through it, and
// delegates Lookup and Insert too, so the batch prepass peels and
// publishes exactly as it does against the bare cache.
type tracedRunner struct {
	under *simcache.Cache
	tr    *tracer
}

func (r *tracedRunner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	t := r.tr
	id := obs.TraceID(ctx)
	seq := t.seq.Add(1)
	timed := func(d sim.Design, cfg sim.Config) (*sim.Result, error) {
		start := t.now()
		res, err := fn(d, cfg)
		t.record(span{ID: id, Parent: seq, Name: spanEngine, Op: engine, Start: start, End: t.now()})
		t.engineCalls.Add(1)
		if res != nil {
			t.rebuilds.Add(int64(res.Rebuilds))
		}
		return res, err
	}
	start := t.now()
	res, err := r.under.Run(ctx, engine, timed, d, cfg)
	t.record(span{ID: id, Seq: seq, Name: spanRunner, Op: engine, Start: start, End: t.now()})
	t.runCalls.Add(1)
	return res, err
}

func (r *tracedRunner) Lookup(ctx context.Context, key, engine string) (*sim.Result, bool) {
	res, ok := r.under.Lookup(ctx, key, engine)
	r.tr.lookups.Add(1)
	if ok {
		r.tr.peels.Add(1)
	}
	return res, ok
}

func (r *tracedRunner) Insert(key, engine string, res *sim.Result) {
	r.under.Insert(key, engine, res)
}

// hitRatio is the share of simulation requests answered without running
// the engine: cache and single-flight hits on Run, plus batch-prepass
// peels, which simcache.Stats does not count (Lookup is not a Hit).
func (t *tracer) hitRatio() float64 {
	runs, misses := t.runCalls.Load(), t.engineCalls.Load()
	return ratio(float64(runs-misses+t.peels.Load()), float64(runs+t.lookups.Load()))
}

// parentNames lists, per span name, the names its parent may have, in
// order of preference. The engine span's parent is set when it is
// recorded; the rest are resolved by containment within one ID.
var parentNames = map[string][]string{
	spanClient:  {spanBuild},
	spanHandler: {spanClient},
	spanQueue:   {spanBuild},
	spanJob:     {spanBuild},
	spanRunner:  {spanJob, spanHandler},
}

// linkParents resolves each span's parent: the shortest span with the
// same ID and an allowed parent name whose interval contains it.
func linkParents(spans []span) {
	byID := make(map[string][]int)
	for i, s := range spans {
		byID[s.ID] = append(byID[s.ID], i)
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent != 0 || s.ID == "" {
			continue
		}
		for _, want := range parentNames[s.Name] {
			best := -1
			for _, j := range byID[s.ID] {
				p := spans[j]
				if j == i || p.Name != want || p.Start > s.Start || p.End < s.End {
					continue
				}
				if best < 0 || p.dur() < spans[best].dur() {
					best = j
				}
			}
			if best >= 0 {
				s.Parent = spans[best].Seq
				break
			}
		}
	}
}

// selfTimes returns, per span Seq, the span's duration minus the part of
// it its children cover.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		iv := children[s.Seq]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], reach), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Seq] = s.dur() - covered
	}
	return self
}

// writeSpans writes the fingerprint and then one span per line.
func writeSpans(path string, fp fingerprint, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]any{"fingerprint": fp})
	for _, s := range spans {
		enc.Encode(s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
