// Package fault is a deterministic, seeded fault-injection layer for the
// simulation stack. It wraps a simcache.Runner (or a raw engine function)
// and injects transient errors, permanent errors, panics, added latency
// and NaN-poisoned results at configured probabilities — the failure modes
// a stiff solver corner, a hung run or a crashing engine goroutine would
// produce in production, but reproducible: the fault decision for the n-th
// intercepted call is a pure function of (Seed, n), so the same seed
// always yields the same fault schedule regardless of goroutine
// interleaving.
//
// Everything is off by default; cmd/ehdoed and cmd/ehdoe expose the
// configuration as -fault-* flags for chaos runs.
package fault

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// Kind is the class of fault injected into one call.
type Kind int

const (
	// None passes the call through untouched.
	None Kind = iota
	// Transient fails the call with an error marked retryable
	// (Transient() == true).
	Transient
	// Permanent fails the call with a non-retryable error.
	Permanent
	// Panic panics in the calling goroutine, standing in for an engine
	// bug on a pathological parameter corner.
	Panic
	// NaN runs the real simulation, then poisons the result with
	// NaN/Inf response fields.
	NaN
	// Kill takes down the whole worker process mid-call, standing in for a
	// crashed or partitioned fleet member: the injector invokes the
	// registered OnKill handler (which abandons every lease and stops
	// heartbeating) and the intercepted call never completes. Without a
	// handler it degrades to a permanent error.
	Kill
)

func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Transient:
		return "transient"
	case Permanent:
		return "permanent"
	case Panic:
		return "panic"
	case NaN:
		return "nan"
	case Kill:
		return "kill"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Config sets the per-call fault probabilities. The kind probabilities
// (PTransient, PPermanent, PPanic, PNaN) partition a single uniform draw,
// so they must sum to at most 1; latency is drawn independently and
// composes with any kind (a slow failure is a realistic failure).
type Config struct {
	Seed       int64
	PTransient float64
	PPermanent float64
	PPanic     float64
	PNaN       float64
	// PKill is the probability of killing the whole worker mid-call (see
	// Kind Kill and Injector.OnKill).
	PKill float64
	// PLatency is the probability of adding Latency before the call
	// proceeds (or fails).
	PLatency float64
	Latency  time.Duration
}

// Enabled reports whether any fault has a non-zero probability.
func (c Config) Enabled() bool {
	return c.PTransient > 0 || c.PPermanent > 0 || c.PPanic > 0 || c.PNaN > 0 ||
		c.PKill > 0 || c.PLatency > 0
}

// Validate checks the probabilities.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"transient", c.PTransient}, {"permanent", c.PPermanent},
		{"panic", c.PPanic}, {"nan", c.PNaN}, {"kill", c.PKill},
		{"latency", c.PLatency},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: probability %s=%g outside [0, 1]", p.name, p.v)
		}
	}
	if sum := c.PTransient + c.PPermanent + c.PPanic + c.PNaN + c.PKill; sum > 1 {
		return fmt.Errorf("fault: kind probabilities sum to %g > 1", sum)
	}
	if c.PLatency > 0 && c.Latency <= 0 {
		return fmt.Errorf("fault: latency probability %g set but latency duration is %s", c.PLatency, c.Latency)
	}
	return nil
}

// Decision is the fault assigned to one intercepted call.
type Decision struct {
	Kind    Kind
	Latency time.Duration // 0 when no latency was drawn
}

// mix64 is a splitmix64-style finalizer: seeds adjacent (seed, call)
// pairs land on uncorrelated PRNG streams.
func mix64(seed int64, call uint64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(call+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// Decide returns the fault schedule entry for the call-th intercepted
// call: a pure function of (Seed, call), independent of goroutine
// interleaving — the property that makes chaos runs reproducible and the
// schedule assertable in tests.
func (c Config) Decide(call uint64) Decision {
	rng := rand.New(rand.NewSource(mix64(c.Seed, call)))
	var d Decision
	u := rng.Float64()
	switch {
	case u < c.PTransient:
		d.Kind = Transient
	case u < c.PTransient+c.PPermanent:
		d.Kind = Permanent
	case u < c.PTransient+c.PPermanent+c.PPanic:
		d.Kind = Panic
	case u < c.PTransient+c.PPermanent+c.PPanic+c.PNaN:
		d.Kind = NaN
	case u < c.PTransient+c.PPermanent+c.PPanic+c.PNaN+c.PKill:
		d.Kind = Kill
	}
	if rng.Float64() < c.PLatency {
		// Between 50% and 100% of the configured latency, so delays are
		// varied but still bounded and deterministic per call index.
		d.Latency = time.Duration((0.5 + 0.5*rng.Float64()) * float64(c.Latency))
	}
	return d
}

// TransientError is an injected retryable failure.
type TransientError struct{ Call uint64 }

func (e *TransientError) Error() string {
	return fmt.Sprintf("fault: injected transient error (call %d)", e.Call)
}

// Transient marks the error as retryable for core's retry policy.
func (e *TransientError) Transient() bool { return true }

// PermanentError is an injected non-retryable failure.
type PermanentError struct{ Call uint64 }

func (e *PermanentError) Error() string {
	return fmt.Sprintf("fault: injected permanent error (call %d)", e.Call)
}

// Injector applies a Config's fault schedule to intercepted simulation
// calls. One injector holds one call counter, shared across every Runner
// and Engine it wraps, so the schedule is consumed in call-arrival order.
// Safe for concurrent use.
type Injector struct {
	cfg    Config
	calls  atomic.Uint64
	onKill atomic.Pointer[func()]
}

// New returns an Injector for the config. The config should be validated
// first; New is lenient so tests can construct edge cases directly.
func New(cfg Config) *Injector { return &Injector{cfg: cfg} }

// OnKill registers the handler a Kill decision invokes — in a worker
// daemon, the function that abandons every lease, stops heartbeating and
// cancels the run context, so the process drops off the fleet exactly as a
// crash would. The handler must (directly or transitively) cancel the
// context of in-flight runs: after calling it the injector blocks the
// intercepted call until its context is cancelled, because a killed worker
// never answers.
func (inj *Injector) OnKill(fn func()) { inj.onKill.Store(&fn) }

// intercept applies the next schedule entry around run. ctx bounds the
// injected latency and carries the trace logger; injected faults are
// logged at warn so chaos runs are auditable.
func (inj *Injector) intercept(ctx context.Context, run func() (*sim.Result, error)) (*sim.Result, error) {
	call := inj.calls.Add(1) - 1
	d := inj.cfg.Decide(call)
	lg := obs.FromContext(ctx)
	if d.Latency > 0 {
		lg.Warn("fault: injected latency", "call", call, "latency_ms", float64(d.Latency.Microseconds())/1e3)
		t := time.NewTimer(d.Latency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return nil, context.Cause(ctx)
		}
	}
	switch d.Kind {
	case Transient:
		lg.Warn("fault: injected transient error", "call", call)
		return nil, &TransientError{Call: call}
	case Permanent:
		lg.Warn("fault: injected permanent error", "call", call)
		return nil, &PermanentError{Call: call}
	case Panic:
		lg.Warn("fault: injecting panic", "call", call)
		panic(fmt.Sprintf("fault: injected panic (call %d, seed %d)", call, inj.cfg.Seed))
	case Kill:
		if h := inj.onKill.Load(); h != nil {
			lg.Warn("fault: killing worker", "call", call)
			(*h)()
			// The handler cancels the surrounding context; a killed worker
			// never answers, so wait for the cancellation instead of
			// returning a result.
			<-ctx.Done()
			return nil, context.Cause(ctx)
		}
		// No process to kill (injector used outside a worker daemon):
		// degrade to a permanent failure so callers never hang.
		lg.Warn("fault: kill decision without OnKill handler, degrading to permanent error", "call", call)
		return nil, &PermanentError{Call: call}
	}
	res, err := run()
	if err != nil || d.Kind != NaN {
		return res, err
	}
	lg.Warn("fault: poisoning result with NaN/Inf", "call", call)
	// The underlying result may be shared (simcache); poison a copy.
	poisoned := *res
	poisoned.AvgHarvestedPower = math.NaN()
	poisoned.StoredEnergyEnd = math.Inf(1)
	poisoned.UptimeFraction = math.NaN()
	poisoned.NetEnergyMargin = math.NaN()
	return &poisoned, nil
}

// runner is the Runner-level wrapper: faults are injected per request,
// before the cache, so replicated design points still draw from the
// schedule.
type runner struct {
	inj  *Injector
	next simcache.Runner
}

func (r *runner) Run(ctx context.Context, engine string, fn simcache.Engine, d sim.Design, cfg sim.Config) (*sim.Result, error) {
	return r.inj.intercept(ctx, func() (*sim.Result, error) {
		return r.next.Run(ctx, engine, fn, d, cfg)
	})
}

// Wrap returns a simcache.Runner that applies the injector's schedule
// before delegating to next (nil next means simcache.Direct{}).
func (inj *Injector) Wrap(next simcache.Runner) simcache.Runner {
	if next == nil {
		next = simcache.Direct{}
	}
	return &runner{inj: inj, next: next}
}

// FlagConfig registers the -fault-* flag set on fs and returns a function
// that yields the configured Config after parsing. All probabilities
// default to zero: chaos is strictly opt-in.
func FlagConfig(fs *flag.FlagSet) func() Config {
	seed := fs.Int64("fault-seed", 1, "fault-injection schedule seed (same seed = same schedule)")
	pt := fs.Float64("fault-transient", 0, "probability of an injected transient (retryable) simulation error")
	pp := fs.Float64("fault-permanent", 0, "probability of an injected permanent simulation error")
	ppanic := fs.Float64("fault-panic", 0, "probability of an injected simulation panic")
	pnan := fs.Float64("fault-nan", 0, "probability of NaN/Inf-poisoned simulation responses")
	pkill := fs.Float64("fault-kill", 0, "probability of killing the whole worker mid-simulation (worker daemons only)")
	platency := fs.Float64("fault-latency-p", 0, "probability of injected latency before a simulation")
	latency := fs.Duration("fault-latency", 100*time.Millisecond, "upper bound of injected latency per affected simulation")
	return func() Config {
		return Config{
			Seed: *seed, PTransient: *pt, PPermanent: *pp, PPanic: *ppanic,
			PNaN: *pnan, PKill: *pkill, PLatency: *platency, Latency: *latency,
		}
	}
}
