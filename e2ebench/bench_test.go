package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// spec is the part of BENCHMARK.json the self-test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEveryMetricEmitted runs each workload briefly, untraced and traced,
// and requires every metric BENCHMARK.json names to be reported, finite,
// with the unit it declares, and every output check to pass.
func TestEveryMetricEmitted(t *testing.T) {
	s := readSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		fn, ok := workloads[w.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, traced := range []bool{false, true} {
			r := &run{seed: 7, seconds: time.Second}
			if traced {
				r.tr = newTracer()
			}
			o, err := fn(r)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if len(o.problems) > 0 || o.failed > 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d problems %v", w.Name, traced, o.attempted, o.failed, o.problems)
			}
			got := make(map[string]value)
			for _, v := range o.contract() {
				got[v.Name] = v
			}
			want := s.EndToEnd
			if traced {
				got = make(map[string]value)
				for _, v := range o.layers {
					got[v.Name] = v
				}
				want = s.PerLayer
			}
			declared := make(map[string]bool)
			for _, m := range want {
				declared[m.Name] = true
			}
			for name := range got {
				if !declared[name] && !printedOnly[name] {
					t.Errorf("%s traced=%v: metric %s is emitted but not in BENCHMARK.json", w.Name, traced, name)
				}
			}
			for _, m := range want {
				v, ok := got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not emitted", w.Name, traced, m.Name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, v.Value)
				case v.Unit == "" || v.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, v.Value)
				}
			}
			if traced {
				checkSpans(t, w.Name, r.tr.snapshot())
			}
		}
	}
}

// checkSpans requires the layers a workload crosses to leave spans, each
// below the top layer linked to a parent.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	seen := make(map[string]int)
	for _, s := range spans {
		seen[s.Name]++
		if s.End < s.Start {
			t.Errorf("%s: span %+v ends before it starts", workload, s)
		}
		if s.Parent == 0 && (s.Name == spanEngine || s.Name == spanRunner || s.Name == spanJob) {
			t.Errorf("%s: span %+v has no parent", workload, s)
		}
	}
	for _, name := range []string{spanBuild, spanClient, spanHandler, spanQueue, spanJob, spanRunner, spanEngine} {
		if seen[name] == 0 {
			t.Errorf("%s: no %s spans", workload, name)
		}
	}
}

// TestStallRaisesLatencyFromDue drives the open loop against a target
// that stalls every request for 150 ms once. Latency is timed from each
// arrival's due time, so the arrivals queued behind the stall carry it;
// the generator itself keeps to its schedule.
func TestStallRaisesLatencyFromDue(t *testing.T) {
	measure := func(stall bool) (p99, lateP99 float64) {
		var gate sync.RWMutex
		var n atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall && n.Add(1) == 200 {
				gate.Lock()
				time.Sleep(150 * time.Millisecond)
				gate.Unlock()
			}
			gate.RLock()
			gate.RUnlock()
			w.WriteHeader(http.StatusOK)
		}))
		defer srv.Close()
		tr := &http.Transport{MaxConnsPerHost: exploreConns, MaxIdleConnsPerHost: exploreConns}
		defer tr.CloseIdleConnections()
		client := &http.Client{Transport: tr}
		dues := poissonDues(rand.New(rand.NewSource(1)), 1000, 600)
		shots := openLoop(dues, exploreConns, 1000, func(int) bool {
			req, _ := http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
			res, err := client.Do(req)
			if err != nil {
				return false
			}
			res.Body.Close()
			return res.StatusCode == http.StatusOK
		})
		lat := make([]float64, len(shots))
		late := make([]float64, len(shots))
		for i, s := range shots {
			lat[i], late[i] = s.latencyMS(), s.lateMS()
		}
		return quantile(lat, 0.99), quantile(late, 0.99)
	}
	calm, _ := measure(false)
	stalled, late := measure(true)
	if !(stalled > 50 && stalled > 5*calm) {
		t.Errorf("p99 from due: calm %.2f ms, stalled %.2f ms; want the stall to show", calm, stalled)
	}
	if late > 20 {
		t.Errorf("generator fell %.2f ms behind at p99 during the stall; want it on schedule", late)
	}
}

// TestHitRatioCountsBatchPeels pins the cache accounting: a batch rebuild
// of cached points moves simcache.Stats Hits and Misses by nothing (the
// prepass peels through Lookup), yet every one of its points came from
// the cache and simcache.hit_ratio counts it.
func TestHitRatioCountsBatchPeels(t *testing.T) {
	tr := newTracer()
	h, err := startHarness(tr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	ctx := context.Background()
	req := serve.BuildRequest{Model: "m", Excite: 0.6, Horizon: 10}
	if _, err := h.build(ctx, "fast", req); err != nil {
		t.Fatal(err)
	}
	before := h.cache.Stats()
	runs, misses, lookups, peels := tr.runCalls.Load(), tr.engineCalls.Load(), tr.lookups.Load(), tr.peels.Load()
	req.Engine = serve.EngineBatch
	b, err := h.build(ctx, "batch", req)
	if err != nil {
		t.Fatal(err)
	}
	after := h.cache.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("batch rebuild moved Stats: hits %d→%d misses %d→%d", before.Hits, after.Hits, before.Misses, after.Misses)
	}
	bs := b.view.Batch
	if bs == nil || bs.Peeled == 0 || bs.Lanes != 0 {
		t.Fatalf("batch rebuild stats %+v, want every point peeled from the cache", bs)
	}
	if d := tr.engineCalls.Load() - misses; d != 0 {
		t.Errorf("batch rebuild ran the engine %d times", d)
	}
	dRuns, dLookups, dPeels := tr.runCalls.Load()-runs, tr.lookups.Load()-lookups, tr.peels.Load()-peels
	if dPeels != int64(bs.Peeled) || dLookups != dPeels || dRuns != 0 {
		t.Errorf("batch rebuild: %d lookups, %d peels, %d runs; want %d peels and nothing else",
			dLookups, dPeels, dRuns, bs.Peeled)
	}
	hits := float64(after.Hits + after.DedupHits)
	statsOnly := hits / (hits + float64(after.Misses))
	want := (hits + float64(bs.Peeled)) / (hits + float64(after.Misses) + float64(bs.Peeled))
	if got := tr.hitRatio(); math.Abs(got-want) > 1e-12 || !(got > statsOnly) {
		t.Errorf("hit ratio %.4f, want %.4f (Stats alone give %.4f)", got, want, statsOnly)
	}
}
