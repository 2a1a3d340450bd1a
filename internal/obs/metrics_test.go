package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAndVecRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("app_ticks_total", "Ticks.")
	c.Inc()
	c.Add(2)
	v := r.CounterVec("app_requests_total", "Requests by endpoint.", "endpoint")
	v.With("predict").Add(5)
	v.With("build").Inc()

	out := string(r.Render())
	for _, want := range []string{
		"# HELP app_ticks_total Ticks.\n# TYPE app_ticks_total counter\napp_ticks_total 3\n",
		`app_requests_total{endpoint="build"} 1`,
		`app_requests_total{endpoint="predict"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Same label value returns the same counter.
	if v.With("predict") != v.With("predict") {
		t.Fatal("With must be stable per label value")
	}
}

func TestGaugeAndFuncs(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("app_temp", "Temperature.")
	g.Set(3.5)
	g.Add(-1)
	r.GaugeFunc("app_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.CounterFunc("app_hits_total", "Hits.", func() float64 { return 9 })

	out := string(r.Render())
	for _, want := range []string{
		"app_temp 2.5\n",
		"app_uptime_seconds 12.5\n",
		"# TYPE app_hits_total counter\napp_hits_total 9\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("app_latency_seconds", "Latency.", "endpoint", []float64{0.1, 1})
	h.With("predict").Observe(0.05)
	h.With("predict").Observe(0.5)
	h.With("predict").Observe(5)

	out := string(r.Render())
	for _, want := range []string{
		`app_latency_seconds_bucket{endpoint="predict",le="0.1"} 1`,
		`app_latency_seconds_bucket{endpoint="predict",le="1"} 2`,
		`app_latency_seconds_bucket{endpoint="predict",le="+Inf"} 3`,
		`app_latency_seconds_sum{endpoint="predict"} 5.55`,
		`app_latency_seconds_count{endpoint="predict"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	if got := h.With("predict").Sum(); got != 5.55 {
		t.Fatalf("vec Sum() %g, want 5.55", got)
	}
}

func TestFamiliesSortedAndDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "Last.")
	r.Counter("aaa_total", "First.")
	out := string(r.Render())
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.Counter("aaa_total", "Again.")
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	v := r.CounterVec("v_total", "v", "k")
	h := r.HistogramVec("h_seconds", "h", "k", []float64{1})
	g := r.Gauge("g", "g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				v.With("a").Inc()
				h.With("a").Observe(0.5)
				g.Add(1)
				_ = r.Render()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1600 || v.With("a").Value() != 1600 || h.With("a").Count() != 1600 {
		t.Fatalf("lost updates: c=%d v=%d h=%d", c.Value(), v.With("a").Value(), h.With("a").Count())
	}
	if g.Value() != 1600 {
		t.Fatalf("gauge CAS lost updates: %v", g.Value())
	}
}

func TestGaugeVecRender(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("app_inflight", "Inflight work by worker.", "worker")
	v.With("w-1").Set(3)
	v.With("w-2").Set(1)
	v.With("w-1").Add(-1)

	out := string(r.Render())
	for _, want := range []string{
		"# TYPE app_inflight gauge",
		`app_inflight{worker="w-1"} 2`,
		`app_inflight{worker="w-2"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if v.With("w-1") != v.With("w-1") {
		t.Fatal("With must be stable per label value")
	}
}
