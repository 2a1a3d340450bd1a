package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the single process-wide (or per-server) metrics collector.
// Packages register counters, gauges and histograms — or callback readers
// over counters they already maintain — and Render produces the complete
// Prometheus text exposition. All registered instruments are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// family is one named metric: its metadata plus either static samples
// (per label value) or a callback.
type family struct {
	name, help, typ string
	labelKey        string // "" for unlabeled families

	mu      sync.Mutex
	samples map[string]sampler // label value ("" when unlabeled) → instrument
	order   []string           // insertion order, sorted at render
	fn      func() float64     // callback families (gauge/counter funcs)
}

// sampler renders one instrument's sample lines.
type sampler interface {
	render(b *strings.Builder, name, labels string)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) register(name, help, typ, labelKey string, fn func() float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[name]; ok {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	f := &family{name: name, help: help, typ: typ, labelKey: labelKey,
		samples: make(map[string]sampler), fn: fn}
	r.fams[name] = f
	return f
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) render(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %d\n", name, labels, c.v.Load())
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", "", nil)
	c := &Counter{}
	f.add("", c)
	return c
}

// CounterFunc registers a callback counter: the value is read at render
// time. Use it to expose counters a package already maintains internally
// (e.g. simcache hit/miss stats) without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", "", fn)
}

// CounterVec is a counter family keyed by one label.
type CounterVec struct{ f *family }

// With returns (creating on first use) the counter for a label value.
func (v *CounterVec) With(value string) *Counter {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s, ok := v.f.samples[value]; ok {
		return s.(*Counter)
	}
	c := &Counter{}
	v.f.addLocked(value, c)
	return c
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labelKey, nil)}
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) render(b *strings.Builder, name, labels string) {
	fmt.Fprintf(b, "%s%s %g\n", name, labels, g.Value())
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, "gauge", "", nil)
	g := &Gauge{}
	f.add("", g)
	return g
}

// GaugeVec is a gauge family keyed by one label (e.g. per-worker inflight
// leases).
type GaugeVec struct{ f *family }

// With returns (creating on first use) the gauge for a label value.
func (v *GaugeVec) With(value string) *Gauge {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s, ok := v.f.samples[value]; ok {
		return s.(*Gauge)
	}
	g := &Gauge{}
	v.f.addLocked(value, g)
	return g
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help, labelKey string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labelKey, nil)}
}

// GaugeFunc registers a callback gauge, read at render time (uptime,
// cache entry counts, queue depths).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", "", fn)
}

// Histogram is a cumulative histogram with fixed upper bounds. An
// implicit +Inf bucket follows the configured ones.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64
	buckets []uint64 // len(bounds)+1, last is +Inf
	sum     float64
	count   uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	for i, ub := range h.bounds {
		if v <= ub {
			h.buckets[i]++
		}
	}
	h.buckets[len(h.bounds)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of all observed values — with Count, enough to read
// a mean out of a running histogram in tests and ops tooling.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

func (h *Histogram) render(b *strings.Builder, name, labels string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	// _bucket carries the le label after any family label, inside the
	// same braces.
	open := "{"
	if labels != "" {
		open = labels[:len(labels)-1] + ","
	}
	for i, ub := range h.bounds {
		fmt.Fprintf(b, "%s_bucket%sle=%q} %d\n", name, open, fmt.Sprintf("%g", ub), h.buckets[i])
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, open, h.buckets[len(h.bounds)])
	fmt.Fprintf(b, "%s_sum%s %g\n", name, labels, h.sum)
	fmt.Fprintf(b, "%s_count%s %d\n", name, labels, h.count)
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]uint64, len(bs)+1)}
}

// HistogramVec is a histogram family keyed by one label.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// With returns (creating on first use) the histogram for a label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s, ok := v.f.samples[value]; ok {
		return s.(*Histogram)
	}
	h := newHistogram(v.bounds)
	v.f.addLocked(value, h)
	return h
}

// HistogramVec registers a labeled histogram family with shared bounds.
func (r *Registry) HistogramVec(name, help, labelKey string, bounds []float64) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, "histogram", labelKey, nil), bounds: bounds}
}

func (f *family) add(label string, s sampler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addLocked(label, s)
}

func (f *family) addLocked(label string, s sampler) {
	f.samples[label] = s
	f.order = append(f.order, label)
}

// Render produces the registry's full Prometheus text exposition:
// families sorted by name, samples sorted by label value.
func (r *Registry) Render() []byte {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for name := range r.fams {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.fn != nil {
			v := f.fn()
			if f.typ == "counter" {
				fmt.Fprintf(&b, "%s %d\n", f.name, uint64(v))
			} else {
				fmt.Fprintf(&b, "%s %g\n", f.name, v)
			}
			continue
		}
		f.mu.Lock()
		labels := make([]string, len(f.order))
		copy(labels, f.order)
		sort.Strings(labels)
		for _, lv := range labels {
			s := f.samples[lv]
			tag := ""
			if f.labelKey != "" {
				tag = fmt.Sprintf("{%s=%q}", f.labelKey, lv)
			}
			s.render(&b, f.name, tag)
		}
		f.mu.Unlock()
	}
	return []byte(b.String())
}
