package main

import (
	"time"

	"repro/internal/core"
)

// servePath holds what the client saw of the serve path in the measured
// phase, for the per-layer figures.
type servePath struct {
	memoizable, memoHits int       // predict and sweep requests, and those answered X-Memo: hit
	limited, shed        int       // requests to admission-limited endpoints, and those refused 429
	evals                []float64 // OptimizeResponse.evals per optimize
	late                 []float64 // send time − due time, ms
	// coded points sent to each model's predict, for timing the kernel
	// on the same inputs directly.
	points map[*core.SavedSurfaces][][]float64
}

func newServePath() *servePath {
	return &servePath{points: make(map[*core.SavedSurfaces][][]float64)}
}

// sample names a distribution by its median and sample count.
func sample(name, unit string, xs []float64) value {
	return value{Name: name, Value: quantile(xs, 0.5), Unit: unit, N: len(xs)}
}

// layers computes every per-layer figure of a traced run: from its
// spans, from the JobViews of every build it ran (set-up included), from
// the client's serve-path counts and from the runtime over the measured
// phase. The harnesses must be closed already; admissionMS and
// admissionN come from the last server's /metrics.
func (r *run) layers(sp *servePath, admissionMS, admissionN float64, ph []value) []value {
	t := r.tr
	spans := t.snapshot()
	self := selfTimes(spans)
	var engineMS, runnerUS, handlerUS, loopUS []float64
	hasHandler := make(map[int64]bool)
	for _, s := range spans {
		switch s.Name {
		case spanEngine:
			engineMS = append(engineMS, float64(s.dur())/1e6)
		case spanRunner:
			runnerUS = append(runnerUS, float64(self[s.Seq])/1e3)
		case spanHandler:
			handlerUS = append(handlerUS, float64(s.dur())/1e3)
			hasHandler[s.Parent] = true
		}
	}
	for _, s := range spans {
		if s.Name == spanClient && hasHandler[s.Seq] {
			loopUS = append(loopUS, float64(self[s.Seq])/1e3)
		}
	}

	var simMS, speedup, points, waitMS, runMS, fitMS, lagMS, rounds, adaptivePts []float64
	peeled, batchPts := 0, 0
	for _, b := range r.builds {
		v := b.view
		if v.State != "done" {
			continue
		}
		simMS = append(simMS, v.SimMillis)
		speedup = append(speedup, v.Speedup)
		points = append(points, float64(v.Runs))
		if wait, run, lag, ok := jobTimes(b); ok {
			waitMS = append(waitMS, wait)
			runMS = append(runMS, run)
			fitMS = append(fitMS, run-v.SimMillis)
			lagMS = append(lagMS, lag)
		}
		if v.Batch != nil {
			peeled += v.Batch.Peeled
			batchPts += v.Batch.Points
		}
		if v.Adaptive != nil {
			rounds = append(rounds, float64(len(v.Adaptive.Rounds)))
			adaptivePts = append(adaptivePts, float64(v.Adaptive.PointsSimulated))
		}
	}
	engineCalls := float64(t.engineCalls.Load())
	nsPerPoint, nPoints := predictNS(sp.points)

	out := []value{
		sample("sim.engine_ms_p50", "ms", engineMS),
		{Name: "sim.engine_calls", Value: engineCalls, Unit: "count"},
		{Name: "sim.rebuilds_per_run", Value: ratio(float64(t.rebuilds.Load()), engineCalls), Unit: "count"},
		sample("core.sim_wall_ms", "ms", simMS),
		sample("core.parallel_speedup", "ratio", speedup),
		{Name: "core.points_per_build", Value: mean(points), Unit: "count", N: len(points)},
		{Name: "core.batch_peeled_ratio", Value: ratio(float64(peeled), float64(batchPts)), Unit: "ratio", N: batchPts},
		{Name: "core.adaptive_rounds", Value: mean(rounds), Unit: "count", N: len(rounds)},
		{Name: "core.adaptive_points", Value: mean(adaptivePts), Unit: "count", N: len(adaptivePts)},
		sample("jobs.queue_wait_ms", "ms", waitMS),
		sample("jobs.run_ms", "ms", runMS),
		sample("jobs.fit_register_ms", "ms", fitMS),
		sample("client.observe_lag_ms", "ms", lagMS),
		{Name: "simcache.hit_ratio", Value: t.hitRatio(), Unit: "ratio", N: int(t.runCalls.Load() + t.lookups.Load())},
		{Name: "simcache.evictions", Value: float64(r.evictions), Unit: "count"},
		sample("simcache.self_us", "us", runnerUS),
		sample("serve.handler_p50_us", "us", handlerUS),
		sample("serve.loopback_p50_us", "us", loopUS),
		{Name: "load.memo_hit_ratio", Value: ratio(float64(sp.memoHits), float64(sp.memoizable)), Unit: "ratio", N: sp.memoizable},
		{Name: "load.admission_wait_ms", Value: admissionMS, Unit: "ms", N: int(admissionN)},
		{Name: "load.shed_ratio", Value: ratio(float64(sp.shed), float64(sp.limited)), Unit: "ratio", N: sp.limited},
		{Name: "rsm.predict_ns_per_point", Value: nsPerPoint, Unit: "ns", N: nPoints},
		{Name: "opt.evals_per_optimize", Value: mean(sp.evals), Unit: "count", N: len(sp.evals)},
		{Name: "gen.late_p50_ms", Value: quantile(sp.late, 0.5), Unit: "ms", N: len(sp.late)},
		{Name: "gen.late_p99_ms", Value: quantile(sp.late, 0.99), Unit: "ms", N: len(sp.late)},
	}
	out = append(out, ph...)
	sortValues(out)
	return out
}

// predictNS times SavedSurfaces.PredictBatch directly, per point and
// response, over the points each model was asked about; build-fresh,
// which sends no predictions, records its models' own design points. The
// figure is the median of several passes.
func predictNS(sent map[*core.SavedSurfaces][][]float64) (float64, int) {
	if len(sent) == 0 {
		return 0, 0
	}
	const passes = 5
	var per []float64
	n := 0
	for pass := 0; pass < passes; pass++ {
		var ns float64
		n = 0
		for ss, pts := range sent {
			ids := ss.Responses()
			start := time.Now()
			for _, id := range ids {
				if _, err := ss.PredictBatch(id, pts); err != nil {
					return 0, 0
				}
			}
			ns += float64(time.Since(start).Nanoseconds())
			n += len(pts) * len(ids)
		}
		per = append(per, ns/float64(n))
	}
	return quantile(per, 0.5), n
}
