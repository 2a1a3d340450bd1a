package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// The explore workload: an open loop of Poisson arrivals from one
// generator over at most exploreConns connections, against two models
// built in set-up. A reference rung below capacity gives the latency
// figures; a ladder of fixed rates above it finds the highest rate whose
// p99 latency stays within limitMS.
const (
	exploreConns = 2
	refQPS       = 1000.0
	limitMS      = 20.0
	// refShare of the measured time goes to the reference rung, the rest
	// is split evenly across the ladder.
	refShare = 0.5
	// poolShare of predict and sweep bodies come from a fixed pool of
	// poolSize per kind, so the response memo sees repeats.
	poolShare = 0.25
	poolSize  = 16
	// checkEvery: one predict or sweep answer in checkEvery is recomputed
	// through the model's surfaces after the run.
	checkEvery = 16
)

// ladderQPS are the rates above the reference rung. They straddle the
// capacity of the 2-vCPU reference machine, where p99 crosses limitMS
// between 4000 and 6000 requests/s from run to run.
var ladderQPS = []float64{2000, 3000, 4000, 5000, 6000, 7000, 8000}

// The request mix, by kind and weight.
var exploreMix = []struct {
	kind   string
	weight float64
}{
	{"predict1", 0.60},
	{"predict64", 0.15},
	{"sweep", 0.15},
	{"optimize", 0.10},
}

// pooledKinds are the memoized kinds, whose bodies are drawn from the
// pool poolShare of the time. Optimize answers are not memoized, so its
// bodies are always fresh.
var pooledKinds = []string{"predict1", "predict64", "sweep"}

// exploreModels are built during set-up: design and excitation.
var exploreModels = []serve.BuildRequest{
	{Model: "explore-ccf", Design: "ccf", Excite: 0.6},
	{Model: "explore-bbd", Design: "bbd", Excite: 0.5},
}

// exploreReq is one pre-encoded request and the surfaces it asks about.
type exploreReq struct {
	kind string
	path string
	body json.RawMessage
	ss   *core.SavedSurfaces
}

func (q *exploreReq) memoized() bool { return q.kind != "optimize" }

// answer decodes the request again, so only the sampled ones cost the
// memory of a typed copy.
func (q *exploreReq) answer(body []byte) (answer, error) {
	a := answer{ss: q.ss, body: body}
	var in any
	if q.path == "/v1/sweep" {
		a.sweep = new(serve.SweepRequest)
		in = a.sweep
	} else {
		a.pred = new(serve.PredictRequest)
		in = a.pred
	}
	return a, json.Unmarshal(q.body, in)
}

// requestMix draws seeded requests over the set-up models.
type requestMix struct {
	rng    *rand.Rand
	models []string
	ss     []*core.SavedSurfaces
	pool   map[string][]*exploreReq
}

func newRequestMix(seed int64, h *harness) (*requestMix, error) {
	m := &requestMix{rng: rand.New(rand.NewSource(seed)), pool: make(map[string][]*exploreReq)}
	for _, b := range exploreModels {
		ss, ok := h.srv.Registry().Get(b.Model)
		if !ok {
			return nil, fmt.Errorf("model %q not registered", b.Model)
		}
		m.models = append(m.models, b.Model)
		m.ss = append(m.ss, ss)
	}
	for _, kind := range pooledKinds {
		for i := 0; i < poolSize; i++ {
			m.pool[kind] = append(m.pool[kind], m.fresh(kind))
		}
	}
	return m, nil
}

// fresh draws a new request of one kind.
func (m *requestMix) fresh(kind string) *exploreReq {
	i := m.rng.Intn(len(m.models))
	name, ss := m.models[i], m.ss[i]
	resps := ss.Responses()
	q := &exploreReq{kind: kind, ss: ss}
	var in any
	switch kind {
	case "predict1", "predict64":
		n := 1
		if kind == "predict64" {
			n = 64
		}
		q.path = "/v1/predict"
		in = serve.PredictRequest{Model: name, Points: randomPoints(m.rng, ss, n)}
	case "sweep":
		q.path = "/v1/sweep"
		in = randomSweep(m.rng, ss, name)
	default:
		q.path = "/v1/optimize"
		in = serve.OptimizeRequest{
			Model:    name,
			Response: string(resps[m.rng.Intn(len(resps))]),
			Minimize: m.rng.Intn(2) == 0,
			Seed:     m.rng.Int63(),
		}
	}
	body, err := json.Marshal(in)
	if err != nil {
		panic(err) // the request types always marshal
	}
	q.body = body
	return q
}

// next draws the next request of the mix.
func (m *requestMix) next() *exploreReq {
	u := m.rng.Float64()
	kind := exploreMix[len(exploreMix)-1].kind
	for _, k := range exploreMix {
		if u < k.weight {
			kind = k.kind
			break
		}
		u -= k.weight
	}
	if pool := m.pool[kind]; pool != nil && m.rng.Float64() < poolShare {
		return pool[m.rng.Intn(poolSize)]
	}
	return m.fresh(kind)
}

// exploreSetup builds the models one after the other and then sends
// every pooled request once, so the memo and the code paths are warm.
func exploreSetup(seed int64) func(*harness) error {
	return func(h *harness) error {
		ctx := context.Background()
		for _, req := range exploreModels {
			b, err := h.build(ctx, "setup-"+req.Model, req)
			if err != nil {
				return err
			}
			if _, err := checkBuild(b); err != nil {
				return err
			}
		}
		m, err := newRequestMix(seed, h)
		if err != nil {
			return err
		}
		for _, kind := range pooledKinds {
			for _, q := range m.pool[kind] {
				res, err := h.call(ctx, "", q.kind, http.MethodPost, q.path, q.body)
				if err := decode(res, err, nil); err != nil {
					return fmt.Errorf("warm-up %s: %w", q.kind, err)
				}
			}
		}
		return nil
	}
}

// reply is what the client kept of one answer.
type reply struct {
	status int
	memo   bool
	body   []byte // kept for sampled checks and, traced, for optimize
}

// rung is what one fixed-rate stretch of the open loop measured.
type rung struct {
	qps  float64
	lat  []float64 // ms from due time, +Inf for a miss, in due order
	late []float64 // ms from due time to send
}

// meets reports whether the rung's p99 latency, with every shed, failed
// or dropped request counted as a miss, is within limitMS and the
// generator kept to its schedule.
func (g *rung) meets() bool {
	return len(g.lat) > 0 && quantile(append([]float64(nil), g.lat...), 0.99) <= limitMS &&
		quantile(append([]float64(nil), g.late...), 0.99) <= limitMS
}

// exploreRun is the state of the measured phase.
type exploreRun struct {
	h      *harness
	m      *requestMix
	rng    *rand.Rand
	traced bool
	sent   int // requests scheduled so far, for trace IDs and sampling
	o      *outcome
	sp     *servePath
}

// rung sends qps requests per second for dur, then settles every answer:
// counts, sampled output checks and, for the reference rung, the
// serve-path figures. Only the summary is kept.
func (e *exploreRun) rung(qps float64, dur time.Duration, ref bool) *rung {
	n := int(qps * dur.Seconds())
	reqs := make([]*exploreReq, n)
	replies := make([]reply, n)
	ids := make([]string, n)
	base := e.sent
	e.sent += n
	for i := range reqs {
		reqs[i] = e.m.next()
		if e.traced {
			ids[i] = fmt.Sprintf("x-%d", base+i)
		}
	}
	dues := poissonDues(e.rng, qps, n)
	// Past a tenth of a second of arrivals waiting, the rung has failed
	// anyway; dropping the rest bounds how long it takes to drain.
	backlog := int(math.Max(64, qps/10))
	ctx := context.Background()
	shots := openLoop(dues, exploreConns, backlog, func(i int) bool {
		q := reqs[i]
		res, err := e.h.call(ctx, ids[i], q.kind, http.MethodPost, q.path, q.body)
		if err != nil {
			return false
		}
		rep := reply{status: res.Status, memo: res.Header.Get("X-Memo") == "hit"}
		if q.memoized() && (base+i)%checkEvery == 0 || e.traced && q.kind == "optimize" {
			rep.body = res.Body
		}
		replies[i] = rep
		return res.Status == http.StatusOK
	})

	g := &rung{qps: qps, lat: make([]float64, n), late: make([]float64, n)}
	for i, s := range shots {
		g.lat[i], g.late[i] = s.latencyMS(), s.lateMS()
		if !s.dropped {
			e.settle(reqs[i], replies[i], s.ok, ref)
		}
	}
	return g
}

// settle counts one sent request and checks its answer if it was kept.
func (e *exploreRun) settle(q *exploreReq, rep reply, ok, ref bool) {
	o, sp := e.o, e.sp
	o.attempted++
	refused := rep.status == http.StatusTooManyRequests
	// Sheds above capacity are the ladder's business; anything else that
	// is not a 200, and any refusal at the reference rate, is a failed
	// operation.
	if !ok && (ref || !refused) {
		o.failed++
	}
	if ok && rep.body != nil && q.memoized() {
		a, err := q.answer(rep.body)
		if err == nil {
			err = a.check()
		}
		if err != nil {
			o.failed++
			o.problem("%v", err)
		}
	}
	if !ref {
		return
	}
	sp.limited++
	if refused {
		sp.shed++
	}
	if q.memoized() {
		sp.memoizable++
		if rep.memo {
			sp.memoHits++
		}
	}
	if e.traced && q.path == "/v1/predict" {
		if a, err := q.answer(nil); err == nil {
			sp.points[q.ss] = append(sp.points[q.ss], codedPoints(q.ss, a.pred.Points)...)
		}
	}
	if e.traced && q.kind == "optimize" && rep.body != nil {
		var or serve.OptimizeResponse
		if json.Unmarshal(rep.body, &or) == nil {
			sp.evals = append(sp.evals, float64(or.Evals))
		}
	}
}

// explore runs the reference rung and then the ladder.
func explore(r *run) (*outcome, error) {
	o := &outcome{}
	h, setupS, err := r.setup(exploreConns, exploreSetup(r.seed))
	if err != nil {
		return nil, err
	}
	o.setupS = setupS
	o.checkBuilds(h.builds)
	m, err := newRequestMix(r.seed, h)
	if err != nil {
		r.closeHarness(h)
		return nil, err
	}
	e := &exploreRun{h: h, m: m, rng: rand.New(rand.NewSource(r.seed + 1)), traced: r.tr != nil, o: o, sp: newServePath()}
	refDur := time.Duration(refShare * float64(r.seconds))
	rungDur := time.Duration((1 - refShare) * float64(r.seconds) / float64(len(ladderQPS)))

	ph := beginPhase()
	ref := e.rung(refQPS, refDur, true)
	rt := ph.runtimeLayers(len(ref.lat))
	e.sp.late = append(e.sp.late, ref.late...)
	rungs := []*rung{ref}
	for _, qps := range ladderQPS {
		rungs = append(rungs, e.rung(qps, rungDur, false))
	}

	maxQPS := 0.0
	for _, g := range rungs {
		if g.meets() {
			maxQPS = math.Max(maxQPS, g.qps)
		}
	}
	o.opP50MS = windowed(ref.lat, 0.5)
	o.e2e = append(o.common(),
		value{Name: "explore_p50_ms", Value: o.opP50MS, Unit: "ms", N: len(ref.lat)},
		value{Name: "explore_p90_ms", Value: windowed(ref.lat, 0.9), Unit: "ms", N: len(ref.lat)},
		value{Name: "explore_p99_ms", Value: windowed(ref.lat, 0.99), Unit: "ms", N: len(ref.lat)},
		value{Name: "explore_max_qps", Value: maxQPS, Unit: "1/s", N: len(rungs)})
	for _, g := range rungs {
		o.e2e = append(o.e2e,
			value{Name: fmt.Sprintf("rung_%g_p50_ms", g.qps), Value: quantile(g.lat, 0.5), Unit: "ms", N: len(g.lat)},
			value{Name: fmt.Sprintf("rung_%g_p99_ms", g.qps), Value: quantile(g.lat, 0.99), Unit: "ms", N: len(g.lat)})
	}
	return o, r.finish(h, o, e.sp, rt)
}
