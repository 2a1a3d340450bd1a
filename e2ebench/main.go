// Command e2ebench is the repository's end-to-end benchmark. It starts an
// in-process ehdoed server (serve.Server, default configuration) on a
// loopback port and drives one workload against it through the typed
// client, so both user paths are measured as a user sees them:
//
//   - the build path: /v1/build → job queue → core pool → simcache → sim
//     → rsm fit → registry;
//   - the serve path: HTTP → admission and memo → decode → predict
//     kernel → encode.
//
// Workloads:
//
//	build-fresh    closed loop, 2 clients, default builds at distinct
//	               excitations: nearly every design point misses the cache.
//	build-iterate  closed loop, 1 client running designer sessions that
//	               rebuild one model five ways and explore it after each
//	               build: cache reuse, adaptive and batch builds, hot swaps.
//	explore        open loop, Poisson arrivals over at most 2 connections
//	               against models built during set-up: serve path only.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash e2ebench/run.sh --workload build-fresh --seed 1 --seconds 10 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 10
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 the calls into each layer are
// timed from the benchmark's own code, the spans are written to --spans
// when the run ends, and the JSON carries every per-layer metric. The
// lines before it name each metric the workload measures, with its unit
// and sample count, plus the machine fingerprint. "all" runs every
// workload untraced and then traced, prints everything plus the tracing
// overhead, and exits non-zero if any output check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setups is how many times a run sets up its server; setup_s is their
// median, so one slow start does not move it.
const setups = 5

// value is one reported metric.
type value struct {
	Name  string
	Value float64
	Unit  string
	N     int // samples behind the statistic, 0 for a count or ratio
}

// outcome is what one workload run measured.
type outcome struct {
	setupS    float64
	opP50MS   float64   // median latency of the workload's operation
	r2        []float64 // each built model's lowest R² over its responses
	rssMB     float64   // peak resident set at the end of the measured phase
	attempted int
	failed    int
	problems  []string // output checks that failed
	e2e       []value  // the workload's end-to-end metrics under their own names
	layers    []value  // per-layer metrics (traced run only)
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// checkBuilds applies checkBuild to each build and keeps each model's
// lowest R².
func (o *outcome) checkBuilds(builds []built) {
	for _, b := range builds {
		r2, err := checkBuild(b)
		if err != nil {
			o.problem("%v", err)
			continue
		}
		o.r2 = append(o.r2, r2)
	}
}

func (o *outcome) r2Min() float64 {
	lo := math.Inf(1)
	for _, r2 := range o.r2 {
		lo = math.Min(lo, r2)
	}
	return lo
}

// common are the end-to-end figures every workload reports under the
// same names, recording the peak RSS as of the call.
func (o *outcome) common() []value {
	o.rssMB = peakRSSMB()
	return []value{
		{Name: "setup_s", Value: o.setupS, Unit: "s", N: setups},
		{Name: "ops_failed_ratio", Value: ratio(float64(o.failed), float64(o.attempted)), Unit: "ratio", N: o.attempted},
		{Name: "model_r2_min", Value: o.r2Min(), Unit: "ratio", N: len(o.r2)},
		{Name: "model_r2_p50", Value: quantile(o.r2, 0.5), Unit: "ratio", N: len(o.r2)},
		{Name: "rss_peak_mb", Value: o.rssMB, Unit: "MB"},
	}
}

// contract maps the outcome to the metrics BENCHMARK.json names; every
// workload reports all of them. The tails (build_p90_s and the like) are
// printed, not gated: across ten seeds on the 2-vCPU reference machine,
// explore's p90 from due time spread 16–24% between quartiles.
func (o *outcome) contract() []value {
	return []value{
		{Name: "setup_s", Value: o.setupS, Unit: "s"},
		{Name: "op_p50_ms", Value: o.opP50MS, Unit: "ms"},
		{Name: "model_r2_min", Value: o.r2Min(), Unit: "ratio"},
		{Name: "rss_peak_mb", Value: o.rssMB, Unit: "MB"},
	}
}

var workloads = map[string]func(*run) (*outcome, error){
	"build-fresh":   buildFresh,
	"build-iterate": buildIterate,
	"explore":       explore,
}

func main() {
	workload := flag.String("workload", "", "build-fresh, build-iterate, explore, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 times each layer and reports per-layer metrics")
	spans := flag.String("spans", "", "where a traced run writes its spans (default .bench_build/spans-<workload>.jsonl)")
	flag.Parse()
	dur := time.Duration(*seconds * float64(time.Second))
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds))
	}
	fn, ok := workloads[*workload]
	if !ok || dur <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: want --workload build-fresh|build-iterate|explore|all, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: dur}
	if *trace == 1 {
		r.tr = newTracer()
	}
	o, err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	fp := machine()
	if r.tr != nil {
		path := *spans
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+*workload+".jsonl")
		}
		if err := writeSpans(path, fp, r.tr.snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			os.Exit(1)
		}
	}
	if !report(os.Stdout, *workload, *seed, fp, o, r.tr != nil) {
		os.Exit(1)
	}
}

// printedOnly are per-layer figures printed for the reader but left out
// of the result object. The admission wait is always 0 here: at most
// exploreConns connections never fill the concurrency slots a limited
// endpoint has (4×GOMAXPROCS for the surface reads), so it gates nothing.
var printedOnly = map[string]bool{"load.admission_wait_ms": true}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable lines and then the result object, and
// says whether every output check passed.
func report(w *os.File, workload string, seed int64, fp fingerprint, o *outcome, traced bool) bool {
	fpj, _ := json.Marshal(fp)
	fmt.Fprintf(w, "fingerprint %s\n", fpj)
	fmt.Fprintf(w, "workload %s seed %d traced %v attempted %d failed %d\n", workload, seed, traced, o.attempted, o.failed)
	for _, v := range o.e2e {
		printValue(w, "e2e", v)
	}
	for _, v := range o.layers {
		printValue(w, "layer", v)
	}
	for _, p := range o.problems {
		fmt.Fprintf(w, "check FAILED: %s\n", p)
	}
	contract := o.contract()
	e2e := make(map[string]jsonMetric, len(contract))
	for _, v := range contract {
		e2e[v.Name] = jsonMetric{v.Value, v.Unit}
	}
	// The end-to-end figures go on their own line in both modes, so a
	// caller can set a traced run against an untraced one.
	e2ej, _ := json.Marshal(e2e)
	fmt.Fprintf(w, "contract-e2e %s\n", e2ej)
	res := result{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: e2e}
	if traced {
		res.Metrics = make(map[string]jsonMetric, len(o.layers))
		for _, v := range o.layers {
			if !printedOnly[v.Name] {
				res.Metrics[v.Name] = jsonMetric{v.Value, v.Unit}
			}
		}
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(w, "check FAILED: metric %s is %v\n", name, m.Value)
			res.Correct = false
			res.Metrics[name] = jsonMetric{-1, m.Unit}
		}
	}
	out, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", out)
	return res.Correct
}

func printValue(w *os.File, kind string, v value) {
	if v.N > 0 {
		fmt.Fprintf(w, "%-5s %-28s %14.6g %-6s n=%d\n", kind, v.Name, v.Value, v.Unit, v.N)
		return
	}
	fmt.Fprintf(w, "%-5s %-28s %14.6g %s\n", kind, v.Name, v.Value, v.Unit)
}

// run is the state one benchmark run shares across its set-ups and its
// measured phase.
type run struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil in an untraced run

	// Every build any set-up or the measured phase ran, and the LRU
	// evictions of every server cache, for the per-layer figures.
	builds    []built
	evictions uint64
}

// setup starts the server setups times, running prepare on each, and
// returns the last one (the others are closed) with the median set-up
// time. Set-up is timed end to end: server start, model builds, warm-up.
func (r *run) setup(conns int, prepare func(*harness) error) (*harness, float64, error) {
	var times []float64
	var h *harness
	for i := 0; i < setups; i++ {
		if h != nil {
			r.closeHarness(h)
		}
		start := time.Now()
		var err error
		if h, err = startHarness(r.tr, conns); err != nil {
			return nil, 0, err
		}
		if err := prepare(h); err != nil {
			r.closeHarness(h)
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return h, quantile(times, 0.5), nil
}

func (r *run) closeHarness(h *harness) {
	h.close()
	r.evictions += h.cache.Stats().Evictions
	r.builds = append(r.builds, h.builds...)
}

// phase snapshots the runtime counters around a measured phase.
type phase struct {
	start time.Time
	mem   runtime.MemStats
}

func beginPhase() *phase {
	p := &phase{}
	runtime.ReadMemStats(&p.mem)
	p.start = time.Now()
	return p
}

// runtimeLayers reports the Go runtime's work over the phase per
// operation completed in it.
func (p *phase) runtimeLayers(ops int) []value {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return []value{
		{Name: "runtime.allocs_per_op", Value: ratio(float64(end.Mallocs-p.mem.Mallocs), float64(ops)), Unit: "count"},
		{Name: "runtime.gc_cycles", Value: float64(end.NumGC - p.mem.NumGC), Unit: "count"},
		{Name: "runtime.gc_pause_ms", Value: float64(end.PauseTotalNs-p.mem.PauseTotalNs) / 1e6, Unit: "ms"},
	}
}

// sortValues orders metrics by name, so every run prints them alike.
func sortValues(vs []value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Name < vs[j].Name })
}
