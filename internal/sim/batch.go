package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/harvester"
)

// BatchStats summarizes the amortization a batch achieved: how many lanes
// ran, how many distinct (harvester, rin, dt) model groups they shared, how
// many ZOH bakes were actually performed, and how many per-lane rebuild
// requests were answered by a bake another lane had already paid for.
type BatchStats struct {
	Lanes             int // lanes that entered the lockstep loop
	Groups            int // distinct model groups across those lanes
	Rebuilds          int // ZOH discretizations actually performed
	AmortizedRebuilds int // lane rebuilds answered by another lane's bake
}

// LaneError reports a failure of one batch lane. The surrounding batch
// keeps stepping its remaining lanes; callers route the failed design point
// through the sequential path (which reproduces the same error with full
// retry semantics).
type LaneError struct {
	Lane int // index into the designs slice passed to RunBatch
	Err  error
}

func (e *LaneError) Error() string { return fmt.Sprintf("sim: batch lane %d: %v", e.Lane, e.Err) }
func (e *LaneError) Unwrap() error { return e.Err }

// batchLane is one design point's private state inside the lockstep loop:
// its fast state y = [x, v, i], its per-lane model half (baked matrices +
// as-if-alone counters), slow side, recorder, optional drive recording, and
// the memoized tuner drift check.
type batchLane struct {
	index   int // position in the original designs slice
	y       [3]float64
	model   fastModel
	slow    *slowSide
	rec     recorder
	res     *Result
	drive   *resetStream // non-nil: record the envelope's reset stream (see Drives)
	gamma   float64      // EMF(v) = Gamma·v, inlined for the hot loop
	tunerOn bool

	lastGap  float64
	lastFres float64
}

// groupKey identifies lanes whose fast-dynamics matrices are
// interchangeable: identical harvester parameters, multiplier input
// resistance, and step size. harvester.Params is an all-float64 struct, so
// the key is comparable and exact.
type groupKey struct {
	h   harvester.Params
	rin float64
	dt  float64
}

// batchStepHook, when non-nil, is called for every active lane at every
// slow step; a non-nil return drops that lane. It exists solely so tests
// can force mid-run lane dropout — production never sets it.
var batchStepHook func(step int, ln *batchLane) error

// RunBatch simulates K design points in lockstep over a shared time base
// with the fast engine. RunFast is the one-lane case of the same loop, so
// results[i] is bit-identical to RunFast(designs[i], cfg) — the win is
// architectural: lanes with identical (harvester, rin, dt) share one model
// group, so tuner-driven ZOH rebuilds and the gap memo are paid once per
// group instead of once per point, and the per-step excitation samples are
// evaluated once for the whole batch.
//
// results has len(designs). A lane that fails — invalid design, setup
// error, or mid-run rebuild failure — drops out without disturbing the
// remaining lanes: its slot is nil and the returned error (an errors.Join
// of *LaneError values) identifies it by index.
func RunBatch(designs []Design, cfg Config) ([]*Result, error) {
	results, _, err := RunBatchStats(designs, cfg)
	return results, err
}

// RunBatchStats is RunBatch plus the batch's amortization statistics.
func RunBatchStats(designs []Design, cfg Config) ([]*Result, BatchStats, error) {
	return runBatch(designs, cfg, nil)
}

// runFast is RunFast on a prepared (d, cfg): a one-lane batch. When drive is
// non-nil the run also records the envelope detector's reset stream into it
// (see Drives). The lane's error is returned bare, not wrapped in
// *LaneError.
func runFast(d Design, cfg Config, drive *resetStream) (*Result, error) {
	results, _, err := runBatch([]Design{d}, cfg, []*resetStream{drive})
	if le := (*LaneError)(nil); errors.As(err, &le) {
		err = le.Err
	}
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// runBatch is the fast engine's one stepping loop. drives is nil or parallel
// to designs; a non-nil drives[i] records lane i's reset stream.
func runBatch(designs []Design, cfg Config, drives []*resetStream) ([]*Result, BatchStats, error) {
	var stats BatchStats
	if err := cfg.defaults(); err != nil {
		return nil, stats, err
	}
	start := time.Now()
	results := make([]*Result, len(designs))
	var laneErrs []error
	fail := func(i int, err error) {
		results[i] = nil
		laneErrs = append(laneErrs, &LaneError{Lane: i, Err: err})
	}

	// Lane setup: validate, build slow sides, and attach each lane to its
	// model group. Setup failures drop the lane before the loop starts.
	groups := make(map[groupKey]*modelGroup)
	active := make([]*batchLane, 0, len(designs))
	for i, d := range designs {
		if err := d.Validate(); err != nil {
			fail(i, err)
			continue
		}
		slow, err := newSlowSide(d, cfg.DtSlow)
		if err != nil {
			fail(i, err)
			continue
		}
		key := groupKey{h: d.Harv, rin: d.Mult.InputR, dt: cfg.DtSlow}
		g := groups[key]
		if g == nil {
			g = newModelGroup(d.Harv, d.Mult.InputR, cfg.DtSlow)
			groups[key] = g
		}
		res := &Result{}
		ln := &batchLane{
			index:   i,
			model:   fastModel{g: g},
			slow:    slow,
			rec:     recorder{cfg: cfg, d: d, res: res},
			res:     res,
			gamma:   d.Harv.Gamma,
			tunerOn: slow.ctrl != nil,
		}
		if drives != nil {
			ln.drive = drives[i]
		}
		if err := ln.model.rebuild(slow.gap); err != nil {
			fail(i, err)
			continue
		}
		ln.lastGap, ln.lastFres = slow.gap, ln.model.fres
		results[i] = res
		active = append(active, ln)
	}
	stats.Lanes = len(active)
	stats.Groups = len(groups)

	nSteps := stepCount(cfg)
	for _, ln := range active {
		ln.rec.init(nSteps)
	}

	for k := 0; k < nSteps && len(active) > 0; k++ {
		t := float64(k) * cfg.DtSlow
		// Midpoint sampling of the excitation halves the ZOH phase error;
		// the shared time base means one sample serves every lane.
		accel := cfg.Source.Accel(t + cfg.DtSlow/2)
		excf := cfg.Source.DominantFreq(t)
		hook := batchStepHook

		// One full step per lane: fast dynamics, then the slow side. A
		// failure drops the lane in place; the swap-remove pulls an
		// unprocessed lane into slot j, so no j++ on the drop path.
		for j := 0; j < len(active); {
			ln := active[j]
			if hook != nil {
				if err := hook(k, ln); err != nil {
					fail(ln.index, err)
					active = drop(active, j)
					continue
				}
			}
			ln.model.step(&ln.y, accel)
			emf := ln.gamma * ln.y[1]
			if ln.slow.envelope(emf) && ln.drive != nil {
				ln.drive.add(k, ln.slow.env)
			}
			gap := ln.slow.stepEnv(emf, excf)
			// The gap only moves while the tuner's actuator does, so the
			// drift check memoizes the resonance of the last gap it saw
			// (and model.fres caches the resonance at the matrices' own
			// gap). Without a tuner the gap is constant and the check is
			// skipped outright — either way the comparison sees exactly the
			// values the unmemoized form would.
			if ln.tunerOn {
				if gap != ln.lastGap {
					ln.lastGap, ln.lastFres = gap, ln.model.g.h.ResonantFreq(gap)
				}
				if math.Abs(ln.lastFres-ln.model.fres) > rebuildTolHz {
					if err := ln.model.rebuild(gap); err != nil {
						fail(ln.index, err)
						active = drop(active, j)
						continue
					}
				}
			}
			if cfg.RecordWaveforms { // record checks too; this skips the call
				ln.rec.record(t+cfg.DtSlow, ln.slow.vs, ln.y[0], emf, gap)
			}
			j++
		}
	}

	elapsed := time.Since(start)
	for _, ln := range active {
		ln.res.Steps = nSteps
		ln.res.Rebuilds = ln.model.rebuilds
		ln.res.RebuildHits = ln.model.memoHits
		ln.slow.finish(ln.res, cfg.Horizon)
		ln.res.Elapsed = elapsed
	}
	for _, g := range groups {
		stats.Rebuilds += g.bakes
		stats.AmortizedRebuilds += g.amortized
	}
	return results, stats, errors.Join(laneErrs...)
}

// drop swap-removes lane j from active and returns the shortened slice.
// Lane order is free to change: lanes never read each other's state, and
// the shared group memo's entries are deterministic regardless of which
// lane bakes them, so compaction cannot disturb any surviving lane's
// floating-point stream. It returns the slice rather than closing over it
// so the hot loop keeps the slice header in registers.
func drop(active []*batchLane, j int) []*batchLane {
	last := len(active) - 1
	active[j] = active[last]
	return active[:last]
}
