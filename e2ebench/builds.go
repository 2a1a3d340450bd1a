package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/apiclient"
	"repro/internal/core"
	"repro/internal/serve"
)

// freshClients is build-fresh's closed-loop client count: one per core of
// the 2-vCPU reference machine, so a build is always waiting in the queue
// behind the running one.
const freshClients = 2

// excitations returns a seeded source of excitation amplitudes (m/s²)
// for builds: continuous draws, so no two builds of a run share one.
func excitations(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return 0.45 + 0.3*rng.Float64()
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// warmBuild is the set-up of both build workloads: one default build at
// the default excitation, which no measured build uses.
func warmBuild(h *harness) error {
	b, err := h.build(context.Background(), "warmup", serve.BuildRequest{Model: "warmup"})
	if err != nil {
		return err
	}
	_, err = checkBuild(b)
	return err
}

// buildFresh runs default builds (CCF, fast engine, horizon 60 s) from
// freshClients closed-loop clients, each at a new excitation, so nearly
// every design point misses the simulation cache.
func buildFresh(r *run) (*outcome, error) {
	o := &outcome{}
	h, setupS, err := r.setup(freshClients, warmBuild)
	if err != nil {
		return nil, err
	}
	o.setupS = setupS
	next := excitations(r.seed)
	sp := newServePath()
	ctx := context.Background()

	var (
		mu     sync.Mutex
		builds []built
		wg     sync.WaitGroup
		seq    int
	)
	ph := beginPhase()
	deadline := ph.start.Add(r.seconds)
	wg.Add(freshClients)
	for c := 0; c < freshClients; c++ {
		go func(model string) {
			defer wg.Done()
			ready := time.Now()
			for time.Now().Before(deadline) {
				mu.Lock()
				seq++
				id := fmt.Sprintf("build-%d", seq)
				mu.Unlock()
				b, err := h.build(ctx, id, serve.BuildRequest{Model: model, Excite: next()})
				var ss *core.SavedSurfaces
				if err == nil && r.tr != nil {
					ss, _ = h.srv.Registry().Get(model)
				}
				mu.Lock()
				sp.late = append(sp.late, ms(b.start.Sub(ready)))
				o.attempted++
				if err != nil {
					o.failed++
					o.problem("%v", err)
				} else {
					builds = append(builds, b)
					if ss != nil {
						sp.points[ss] = ss.DesignRuns
					}
				}
				mu.Unlock()
				ready = time.Now()
			}
		}(fmt.Sprintf("fresh-%d", c))
	}
	wg.Wait()
	elapsed := time.Since(ph.start)
	rt := ph.runtimeLayers(len(builds))

	lat := make([]float64, 0, len(builds))
	for _, b := range builds {
		lat = append(lat, ms(b.latency()))
	}
	o.checkBuilds(builds)
	o.opP50MS = windowed(lat, 0.5)
	tail := windowed(lat, 0.9)
	rate := float64(len(builds)) / elapsed.Seconds()
	o.e2e = append(o.common(),
		value{Name: "build_p50_s", Value: o.opP50MS / 1e3, Unit: "s", N: len(lat)},
		value{Name: "build_p90_s", Value: tail / 1e3, Unit: "s", N: len(lat)},
		value{Name: "builds_per_s", Value: rate, Unit: "1/s", N: len(lat)})
	return o, r.finish(h, o, sp, rt)
}

// finish reads the server's admission metrics, closes it, and computes
// the per-layer figures of a traced run.
func (r *run) finish(h *harness, o *outcome, sp *servePath, rt []value) error {
	var admMS, admN float64
	if r.tr != nil {
		var err error
		if admMS, admN, err = h.admissionWaitMS(context.Background()); err != nil {
			r.closeHarness(h)
			return err
		}
	}
	r.closeHarness(h)
	if r.tr != nil {
		o.layers = r.layers(sp, admMS, admN, rt)
	}
	return nil
}

// sessionSteps are the five builds of one build-iterate designer session,
// in order: each rebuilds the same model at the session's excitation.
var sessionSteps = []serve.BuildRequest{
	{Design: "ccf"},
	{Strategy: serve.StrategyAdaptive},
	{Design: "bbd"},
	{Design: "ccf", Engine: serve.EngineBatch},
	{Design: "cci"},
}

// iterateModel is the model every session rebuilds and explores.
const iterateModel = "iterate"

// answer is one predict or sweep reply kept for checking against the
// surfaces that produced it.
type answer struct {
	ss    *core.SavedSurfaces
	pred  *serve.PredictRequest
	sweep *serve.SweepRequest
	body  []byte
}

func (a answer) check() error {
	if a.pred != nil {
		return checkPredict(a.ss, a.pred, a.body)
	}
	return checkSweep(a.ss, a.sweep, a.body)
}

// buildIterate runs designer sessions from one closed-loop client. A
// session takes one excitation, builds the model five ways
// (sessionSteps), sends a sweep and a predict to each freshly swapped
// model, and ends with a validate of 8 confirming simulations.
func buildIterate(r *run) (*outcome, error) {
	o := &outcome{}
	h, setupS, err := r.setup(1, warmBuild)
	if err != nil {
		return nil, err
	}
	o.setupS = setupS
	next := excitations(r.seed)
	rng := rand.New(rand.NewSource(r.seed))
	sp := newServePath()
	ctx := context.Background()

	var sessions []float64
	var answers []answer
	var builds []built
	ph := beginPhase()
	deadline := ph.start.Add(r.seconds)
	ready := time.Now()
	// op records, just before each call, the client's own delay since the
	// previous answer: a closed loop's lateness.
	op := func() {
		sp.late = append(sp.late, ms(time.Since(ready)))
	}
	for s := 0; time.Now().Before(deadline); s++ {
		start := time.Now()
		amp := next()
		ok := true
		for step, req := range sessionSteps {
			req.Model, req.Excite = iterateModel, amp
			op()
			b, err := h.build(ctx, fmt.Sprintf("s%d-%d", s, step), req)
			ready = time.Now()
			o.attempted++
			if err != nil {
				o.failed++
				o.problem("%v", err)
				ok = false
				break
			}
			builds = append(builds, b)
			ss, found := h.srv.Registry().Get(iterateModel)
			if !found {
				o.problem("model %q missing after build %s", iterateModel, b.view.ID)
				ok = false
				break
			}
			sw, pr := exploreModel(rng, ss)
			for _, q := range []struct {
				path string
				in   any
				a    answer
			}{
				{"/v1/sweep", sw, answer{ss: ss, sweep: sw}},
				{"/v1/predict", pr, answer{ss: ss, pred: pr}},
			} {
				op()
				res, err := h.call(ctx, fmt.Sprintf("s%d-%d-%s", s, step, q.path[4:]), q.path[4:], http.MethodPost, q.path, q.in)
				ready = time.Now()
				o.attempted++
				sp.limited++
				sp.memoizable++
				if res != nil && res.Status == http.StatusTooManyRequests {
					sp.shed++
				}
				if err := decode(res, err, nil); err != nil {
					o.failed++
					o.problem("%s: %v", q.path, err)
					continue
				}
				q.a.body = res.Body
				answers = append(answers, q.a)
				if res.Header.Get("X-Memo") == "hit" {
					sp.memoHits++
				}
			}
			if r.tr != nil {
				sp.points[ss] = append(sp.points[ss], codedPoints(ss, pr.Points)...)
			}
		}
		if !ok {
			continue
		}
		op()
		var vr serve.ValidateResponse
		err := h.post(ctx, fmt.Sprintf("s%d-validate", s), "validate", "/v1/validate",
			serve.ValidateRequest{Model: iterateModel, N: 8, Seed: rng.Int63(), Excite: amp}, &vr)
		ready = time.Now()
		o.attempted++
		sp.limited++
		if apiclient.ErrorCode(err) == "overloaded" {
			sp.shed++
		}
		if err != nil {
			o.failed++
			o.problem("validate: %v", err)
			continue
		}
		if err := checkValidate(vr); err != nil {
			o.problem("%v", err)
		}
		sessions = append(sessions, ms(time.Since(start)))
	}
	elapsed := time.Since(ph.start)
	rt := ph.runtimeLayers(len(sessions))

	o.checkBuilds(builds)
	for _, a := range answers {
		if err := a.check(); err != nil {
			o.failed++
			o.problem("%v", err)
		}
	}
	o.opP50MS = quantile(sessions, 0.5)
	tail := quantile(sessions, 0.9)
	rate := float64(len(sessions)) / elapsed.Seconds()
	o.e2e = append(o.common(),
		value{Name: "iterate_session_p50_s", Value: o.opP50MS / 1e3, Unit: "s", N: len(sessions)},
		value{Name: "iterate_session_p90_s", Value: tail / 1e3, Unit: "s", N: len(sessions)},
		value{Name: "sessions_per_s", Value: rate, Unit: "1/s", N: len(sessions)})
	return o, r.finish(h, o, sp, rt)
}

// exploreModel draws the sweep and the 8-point predict a designer sends
// to a freshly built model.
func exploreModel(rng *rand.Rand, ss *core.SavedSurfaces) (*serve.SweepRequest, *serve.PredictRequest) {
	sw := randomSweep(rng, ss, iterateModel)
	return &sw, &serve.PredictRequest{Model: iterateModel, Points: randomPoints(rng, ss, 8)}
}

// randomSweep draws a 21-point sweep of a random response over a random
// factor, with every factor set explicitly in "at".
func randomSweep(rng *rand.Rand, ss *core.SavedSurfaces, model string) serve.SweepRequest {
	resps := ss.Responses()
	return serve.SweepRequest{
		Model:    model,
		Response: string(resps[rng.Intn(len(resps))]),
		Factor:   ss.Factors[rng.Intn(len(ss.Factors))].Name,
		Points:   21,
		At:       randomPoint(rng, ss),
	}
}

// randomPoints draws n points uniformly over the model's factor box, in
// natural units.
func randomPoints(rng *rand.Rand, ss *core.SavedSurfaces, n int) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		at := randomPoint(rng, ss)
		p := make([]float64, len(ss.Factors))
		for j, f := range ss.Factors {
			p[j] = at[f.Name]
		}
		pts[i] = p
	}
	return pts
}

// randomPoint draws one point by factor name, each coordinate rounded to
// six significant digits, as a designer would type it.
func randomPoint(rng *rand.Rand, ss *core.SavedSurfaces) map[string]float64 {
	at := make(map[string]float64, len(ss.Factors))
	for _, f := range ss.Factors {
		x := f.Min + rng.Float64()*(f.Max-f.Min)
		at[f.Name], _ = strconv.ParseFloat(strconv.FormatFloat(x, 'g', 6, 64), 64)
	}
	return at
}

// codedPoints converts natural-unit points to coded units.
func codedPoints(ss *core.SavedSurfaces, pts [][]float64) [][]float64 {
	out := make([][]float64, 0, len(pts))
	for _, p := range pts {
		if c, err := ss.EncodePoint(p); err == nil {
			out = append(out, c)
		}
	}
	return out
}
