package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doe"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/sim"
)

// RunDesign simulates every run of the design — the expensive, up-front
// phase of the flow, and the one way a set of coded points is simulated
// locally. Each run's scenario is built once, before any simulation
// starts; a Build error fails the design there. DoE runs are
// embarrassingly parallel, so the runs spread over a pool of workers
// goroutines (≤ 0 uses GOMAXPROCS; 1 runs them serially). When ctx is
// cancelled — or as soon as any run fails — the remaining simulations are
// abandoned instead of running to completion: workers never start a run
// after the abort signal; runs already in flight finish (the simulator
// itself is not preemptible) and are discarded.
func (p *Problem) RunDesign(ctx context.Context, d *doe.Design, workers int) (*Dataset, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if d.N() == 0 {
		return nil, fmt.Errorf("core: empty design")
	}
	if d.K() != len(p.Factors) {
		return nil, fmt.Errorf("core: design has %d factors, problem has %d", d.K(), len(p.Factors))
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > d.N() {
		workers = d.N()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: design run aborted: %w", err)
	}
	lg := obs.FromContext(ctx)
	lg.Info("design run started", "design", d.Name, "runs", d.N(), "workers", workers)
	start := time.Now()
	// Resolve every run to its scenario up front. A Build panic (or any
	// retryable Build error) becomes the run's first failed attempt, and the
	// run's retries resolve it again, exactly as if it had failed in the
	// pool; any other Build error fails the design before anything runs.
	reqs := make([]runRequest, d.N())
	for i, coded := range d.Runs {
		if err := ctx.Err(); err != nil {
			return &Dataset{Design: d, SimTime: time.Since(start)},
				fmt.Errorf("core: design run aborted: %w", context.Cause(ctx))
		}
		reqs[i].coded = coded
		sc, err := p.resolve(ctx, i, coded)
		switch {
		case err == nil:
			reqs[i].sc = &sc
		case IsTransient(err):
			reqs[i].first = err
		default:
			st := runFaultStats{attempts: 1}
			lg.Warn("sim run failed", "run", i, "attempts", st.attempts, "err", err.Error())
			lg.Warn("design run aborted", "design", d.Name, "err", err.Error())
			return &Dataset{Design: d, SimTime: time.Since(start)}, wrapRunErr(i, st, err)
		}
	}
	// Batch scheduler: under EngineBatch, a lockstep prepass simulates the
	// design's unique uncached points K lanes at a time (bit-identical to
	// the fast engine — see sim.RunBatch) and the pool below reads each
	// run's warmed result by index. Runs the prepass could not settle go
	// through the runner with unchanged retry/timeout/cancellation
	// semantics, so the batch engine only changes where the work happens.
	var (
		warm  []*sim.Result
		batch *BatchStats
	)
	if p.engineName() == EngineBatch {
		warm, batch = p.prewarmBatch(ctx, reqs, workers)
	}
	// Points of the built-in fast engine that differ only in slow-side
	// factors share one open-loop drive: a drive table simulates each drive
	// in full once, recording it, and replays it for the rest,
	// bit-identically, in lockstep units (see sim.Drives). The table plans
	// the handout order so every drive's recording starts first. The pool
	// below runs a copy of the problem whose engine is the table, under the
	// same cache name; the table lives for this call.
	order := make([]int, d.N())
	for i := range order {
		order[i] = i
	}
	var drives *sim.Drives
	if p.Engine == nil {
		drives = &sim.Drives{}
		designs := make([]sim.Design, d.N())
		cfgs := make([]sim.Config, d.N())
		for i, r := range reqs {
			// Warm and unresolved runs never reach the table's plan.
			if r.sc != nil && (warm == nil || warm[i] == nil) {
				designs[i], cfgs[i] = r.sc.Design, p.config(*r.sc)
			}
		}
		order = drives.Plan(designs, cfgs)
		q := *p
		q.Engine, q.EngineName = drives.RunFast, p.engineName()
		p = &q
	}
	// next hands out positions in order; abort stops the handout early.
	// Results land in a pre-sized slice (one slot per run, no index
	// collisions), so the only shared state needing a lock is the error and
	// the work-time counter.
	var (
		next    atomic.Int64
		work    atomic.Int64 // summed run durations, ns
		retries atomic.Int64 // attempts retried after transient faults
		panics  atomic.Int64 // panics recovered into errors
		abort   = make(chan struct{})
		once    sync.Once
		mu      sync.Mutex
		first   error
	)
	fail := func(err error) {
		mu.Lock()
		if first == nil {
			first = err
		}
		mu.Unlock()
		once.Do(func() { close(abort) })
	}
	stop := context.AfterFunc(ctx, func() {
		fail(fmt.Errorf("core: design run aborted: %w", context.Cause(ctx)))
	})
	defer stop()

	rows := make([]map[ResponseID]float64, d.N())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-abort:
					return
				default:
				}
				// The abort channel closes asynchronously (AfterFunc); check
				// the context directly too, so cancellation stops the handout
				// even when runs are answered instantly from the sim cache.
				if ctx.Err() != nil {
					fail(fmt.Errorf("core: design run aborted: %w", context.Cause(ctx)))
					return
				}
				pos := int(next.Add(1)) - 1
				if pos >= d.N() {
					return
				}
				i := order[pos]
				runStart := time.Now()
				var (
					resp map[ResponseID]float64
					st   = runFaultStats{attempts: 1}
					err  error
				)
				if warm != nil && warm[i] != nil {
					resp, err = p.responses(warm[i])
				} else {
					resp, st, err = p.runWithRetry(ctx, i, reqs[i])
				}
				runDur := time.Since(runStart)
				work.Add(int64(runDur))
				retries.Add(int64(st.retries))
				panics.Add(int64(st.panics))
				if err != nil {
					lg.Warn("sim run failed", "run", i, "attempts", st.attempts, "err", err.Error())
					fail(wrapRunErr(i, st, err))
					return
				}
				lg.Debug("sim run", "run", i, "sim_ms", float64(runDur.Microseconds())/1e3)
				rows[i] = resp
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	err := first
	mu.Unlock()
	if err != nil {
		lg.Warn("design run aborted", "design", d.Name, "err", err.Error())
		// Return a Y-less Dataset carrying the timing and fault-recovery
		// stats of the aborted run, so callers (e.g. the job manager) can
		// still surface retry/panic counts for failed builds.
		return &Dataset{
			Design:          d,
			SimTime:         time.Since(start),
			SimWork:         time.Duration(work.Load()),
			Retries:         int(retries.Load()),
			PanicsRecovered: int(panics.Load()),
			Batch:           batch,
		}, err
	}
	ds := &Dataset{Design: d, Y: make(map[ResponseID][]float64, len(p.Responses))}
	for _, id := range p.Responses {
		col := make([]float64, d.N())
		for i, row := range rows {
			col[i] = row[id]
		}
		ds.Y[id] = col
	}
	ds.SimTime = time.Since(start)
	ds.SimWork = time.Duration(work.Load())
	ds.Retries = int(retries.Load())
	ds.PanicsRecovered = int(panics.Load())
	ds.Batch = batch
	attrs := []any{"design", d.Name, "runs", d.N(),
		"sim_ms", float64(ds.SimTime.Microseconds()) / 1e3,
		"work_ms", float64(ds.SimWork.Microseconds()) / 1e3,
		"speedup", ds.Speedup()}
	if drives != nil {
		st := drives.Stats()
		attrs = append(attrs, "drives_recorded", st.Recorded, "runs_replayed", st.Replayed,
			"replay_units", st.Units, "runs_full", st.Full)
	}
	lg.Info("design run finished", attrs...)
	return ds, nil
}

// Subregion returns a refined copy of the problem whose factor ranges are
// shrunk to a fraction (scale) of the original, centred on the coded point
// centre and clamped to the original ranges — the sequential-RSM move
// applied after a lack-of-fit alarm or around a promising optimum.
func (p *Problem) Subregion(centre []float64, scale float64) (*Problem, error) {
	if len(centre) != len(p.Factors) {
		return nil, fmt.Errorf("core: centre has %d coordinates, problem has %d factors", len(centre), len(p.Factors))
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("core: subregion scale %g must be in (0, 1]", scale)
	}
	sub := *p
	sub.Factors = make([]doe.Factor, len(p.Factors))
	for i, f := range p.Factors {
		mid := f.Decode(centre[i])
		half := scale * (f.Max - f.Min) / 2
		lo, hi := mid-half, mid+half
		// Clamp to the original region, preserving the width when possible.
		if lo < f.Min {
			lo, hi = f.Min, math.Min(f.Min+2*half, f.Max)
		}
		if hi > f.Max {
			hi, lo = f.Max, math.Max(f.Max-2*half, f.Min)
		}
		sub.Factors[i] = doe.Factor{Name: f.Name, Min: lo, Max: hi, Unit: f.Unit}
	}
	return &sub, nil
}

// DesirabilityGoal pairs a response with its desirability shape and an
// optional weight (≤ 0 means 1).
type DesirabilityGoal struct {
	Response ResponseID
	Shape    opt.Desirability
	Weight   float64
}

// DesirabilityResult is a multi-response compromise design found on the
// surfaces and confirmed by one simulation.
type DesirabilityResult struct {
	Coded     []float64
	Natural   []float64
	Score     float64                // composite desirability predicted on the surfaces
	Confirmed float64                // composite desirability of the simulated responses
	Predicted map[ResponseID]float64 // per-response surface predictions
	Simulated map[ResponseID]float64 // per-response simulated values
	Evals     int
}

// OptimizeDesirability finds the design maximizing the Derringer–Suich
// composite desirability of several responses on the fitted surfaces
// (multi-start Nelder–Mead), then confirms it with one simulation.
func (s *Surfaces) OptimizeDesirability(goals []DesirabilityGoal, starts int, seed int64) (*DesirabilityResult, error) {
	if len(goals) == 0 {
		return nil, fmt.Errorf("core: need ≥1 desirability goal")
	}
	evals := make([]opt.Objective, len(goals))
	shapes := make([]opt.Desirability, len(goals))
	weights := make([]float64, len(goals))
	for i, g := range goals {
		fit, ok := s.Fits[g.Response]
		if !ok {
			return nil, fmt.Errorf("core: no surface for %q", g.Response)
		}
		evals[i] = fit.Predict
		shapes[i] = g.Shape
		weights[i] = g.Weight
	}
	comp, err := opt.NewComposite(evals, shapes, weights)
	if err != nil {
		return nil, err
	}
	if starts < 1 {
		starts = 1
	}
	b := opt.NewBounds(len(s.Problem.Factors))
	rng := rand.New(rand.NewSource(seed))
	var best *opt.Result
	totalEvals := 0
	for i := 0; i < starts; i++ {
		r, err := opt.NelderMead(comp.Objective(), b, b.Random(rng), opt.NelderMeadConfig{MaxIters: 400})
		if err != nil {
			return nil, err
		}
		totalEvals += r.Evals
		if best == nil || r.F < best.F {
			best = r
		}
	}

	natural, err := doe.DecodeRun(s.Problem.Factors, best.X)
	if err != nil {
		return nil, err
	}
	res := &DesirabilityResult{
		Coded:     best.X,
		Natural:   natural,
		Score:     comp.Score(best.X),
		Predicted: make(map[ResponseID]float64, len(goals)),
		Simulated: make(map[ResponseID]float64, len(goals)),
		Evals:     totalEvals,
	}
	simResp, err := s.Problem.ResponsesAt(context.Background(), best.X)
	if err != nil {
		return nil, err
	}
	// Confirmed composite: the same shapes applied to simulated values.
	simEvals := make([]opt.Objective, len(goals))
	for i, g := range goals {
		res.Predicted[g.Response] = s.Fits[g.Response].Predict(best.X)
		res.Simulated[g.Response] = simResp[g.Response]
		v := simResp[g.Response]
		simEvals[i] = func(x []float64) float64 { return v }
	}
	simComp, err := opt.NewComposite(simEvals, shapes, weights)
	if err != nil {
		return nil, err
	}
	res.Confirmed = simComp.Score(best.X)
	return res, nil
}
