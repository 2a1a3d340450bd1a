package sim

import (
	"errors"
	"reflect"
	"sync"
	"time"

	"repro/internal/harvester"
	"repro/internal/vibration"
)

// Drives is a table of recorded open-loop drives, meant to live for one
// design run. In an untuned design (Tuner == nil) the magnet gap never
// moves, so nothing on the slow side feeds back into the chain excitation →
// harvester state → coil EMF → envelope detector. That chain, the drive,
// depends only on the harvester, the multiplier input resistance, the
// step, the initial gap, the step count and the excitation; the store,
// regulator, node and policy only consume it. Design points that differ
// only in those slow-side factors therefore share one drive.
//
// The first sighting of a drive runs RunFast, whose one lane records the
// drive as the stepping loop goes. Every other sighting waits for that
// recording, then replays it, stepping only the slow side; if the
// recording fails, they run plain RunFast. Results are bit-identical to
// RunFast: the replay feeds the envelope the values RunFast computed and
// then runs the same slow-side body (slowSide.stepEnv). A design is shared
// only when it is untuned, does not record waveforms, and its Source is
// comparable (usable as a map key); any other design runs plain RunFast.
//
// Plan, called before any run, also groups the later sightings of each
// drive into lockstep replay units: the first member of a unit to run
// replays every member in one loop and holds their results for the
// members' own calls.
//
// The zero value is ready to use. Drives is safe for concurrent use.
type Drives struct {
	mu    sync.Mutex
	m     map[driveKey]*drive
	stats DriveStats
}

// DriveStats counts what a drive table did with the runs it was handed.
type DriveStats struct {
	Recorded int // drives simulated in full and recorded
	Replayed int // runs answered from a recorded drive
	Units    int // lockstep replay units run
	Full     int // runs simulated in full without recording a drive
}

// Stats reports what the table has done so far.
func (t *Drives) Stats() DriveStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// driveKey identifies a drive: everything the fast side and the envelope
// detector read. harvester.Params is an all-float64 struct and the Source
// is checked comparable before a key is built, so the key is exact.
type driveKey struct {
	h     harvester.Params
	rin   float64
	dt    float64
	gap   float64 // clamped initial gap
	steps int
	src   vibration.Source
}

// drive is one entry of the table. The first run to claim it records it;
// done closes when that recording ends, with rs set on success.
type drive struct {
	claimed bool
	done    chan struct{}
	rs      *resetStream  // nil until recorded; stays nil if the recording failed
	units   []*replayUnit // set by Plan, read-only afterwards
}

// replayUnit is a set of distinct designs sharing one drive and horizon,
// replayed together in one lockstep loop by whichever member runs first.
// results is parallel to designs and complete once done closes; a nil
// entry (or a unit whose replay panicked) sends that member to a lone
// replay.
type replayUnit struct {
	designs []Design
	horizon float64
	claimed bool
	done    chan struct{}
	results []*Result
}

// replayUnitWidth is the most designs one lockstep unit replays. Wider
// units overlap more lanes' slow-side steps but leave fewer, longer units
// to spread over the worker pool. Over 40 interleaved runs of a fresh
// 27-run CCF at 60 s on two workers (BenchmarkRunDesignFresh), the median
// was 32.4 ms at width 4 against 35.3, 34.7 and 34.8 ms at 6, 8 and 16.
const replayUnitWidth = 4

// shareable reports whether (d, cfg) may use a drive table at all.
func shareable(d Design, cfg Config) bool {
	return d.Tuner == nil && !cfg.RecordWaveforms && cfg.Source != nil &&
		reflect.ValueOf(cfg.Source).Comparable()
}

// keyOf is the drive key of a prepared, shareable (d, cfg).
func keyOf(d Design, cfg Config) driveKey {
	return driveKey{
		h:     d.Harv,
		rin:   d.Mult.InputR,
		dt:    cfg.DtSlow,
		gap:   initialGap(d),
		steps: stepCount(cfg),
		src:   cfg.Source,
	}
}

// comparableDesign reports whether designs can be told apart with ==: the
// one field that may hold an incomparable value is the Policy interface.
func comparableDesign(d Design) bool {
	return d.Policy == nil || reflect.ValueOf(d.Policy).Comparable()
}

// Plan registers a design run's requests before any of them runs, and
// returns the order in which to hand them out: first each drive's first
// request (its recorder) and every request that shares no drive, in
// request order; then the first member of each replay unit; then the
// rest. Request 0 always comes first. The later requests of each drive
// are grouped into units of at most replayUnitWidth distinct designs;
// requests equal to their drive's recorder, and designs whose Policy is
// not comparable, join no unit. Plan must be called at most once, before
// the table runs anything.
func (t *Drives) Plan(designs []Design, cfgs []Config) []int {
	type group struct {
		key       driveKey
		rec       int
		followers []int
	}
	var (
		first, leaders, rest []int
		groups               []*group
		byKey                = make(map[driveKey]*group)
	)
	prepared := make([]Config, len(cfgs))
	for i, d := range designs {
		cfg := cfgs[i]
		if !shareable(d, cfg) || prepare(d, &cfg) != nil {
			first = append(first, i)
			continue
		}
		prepared[i] = cfg
		key := keyOf(d, cfg)
		if g := byKey[key]; g != nil {
			g.followers = append(g.followers, i)
			continue
		}
		g := &group{key: key, rec: i}
		byKey[key] = g
		groups = append(groups, g)
		first = append(first, i)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[driveKey]*drive, len(groups))
	}
	for _, g := range groups {
		rec := designs[g.rec]
		horizon := prepared[g.rec].Horizon
		// Distinct member designs, and the requests that hold each.
		var (
			distinct []Design
			holders  [][]int
		)
		for _, i := range g.followers {
			d := designs[i]
			if !comparableDesign(d) || d == rec ||
				prepared[i].Horizon != horizon {
				rest = append(rest, i)
				continue
			}
			j := 0
			for j < len(distinct) && distinct[j] != d {
				j++
			}
			if j == len(distinct) {
				distinct = append(distinct, d)
				holders = append(holders, nil)
			}
			holders[j] = append(holders[j], i)
		}
		dr := &drive{done: make(chan struct{})}
		// Split the distinct designs into near-equal units.
		n := len(distinct)
		units := (n + replayUnitWidth - 1) / replayUnitWidth
		for u, lo := 0, 0; u < units; u++ {
			hi := lo + (n-lo)/(units-u)
			unit := &replayUnit{
				designs: distinct[lo:hi:hi],
				horizon: horizon,
				done:    make(chan struct{}),
			}
			dr.units = append(dr.units, unit)
			leaders = append(leaders, holders[lo][0])
			rest = append(rest, holders[lo][1:]...)
			for _, h := range holders[lo+1 : hi] {
				rest = append(rest, h...)
			}
			lo = hi
		}
		t.m[g.key] = dr
	}
	order := append(first, leaders...)
	return append(order, rest...)
}

// RunFast simulates the design exactly as the package-level RunFast does,
// sharing the design's drive with the other runs of the table.
func (t *Drives) RunFast(d Design, cfg Config) (*Result, error) {
	if !shareable(d, cfg) {
		t.tally(&t.stats.Full)
		return RunFast(d, cfg)
	}
	if err := prepare(d, &cfg); err != nil {
		return nil, err
	}
	key := keyOf(d, cfg)
	t.mu.Lock()
	dr := t.m[key]
	if dr == nil {
		if t.m == nil {
			t.m = make(map[driveKey]*drive)
		}
		dr = &drive{done: make(chan struct{})}
		t.m[key] = dr
	}
	record := !dr.claimed
	dr.claimed = true
	t.mu.Unlock()
	if record {
		return t.record(dr, d, cfg)
	}

	<-dr.done
	if dr.rs == nil { // the recording failed
		t.tally(&t.stats.Full)
		return runFast(d, cfg, nil)
	}
	t.tally(&t.stats.Replayed)
	if u, lane := dr.unitOf(d, cfg.Horizon); u != nil {
		if res := t.fromUnit(u, lane, cfg, dr.rs); res != nil {
			return res, nil
		}
	}
	return replay(d, cfg, dr.rs)
}

// tally increments one of the table's statistics.
func (t *Drives) tally(n *int) {
	t.mu.Lock()
	*n++
	t.mu.Unlock()
}

// record runs the drive's first sighting in full, recording the drive, and
// publishes it to every run waiting on dr. A panic still publishes the
// failure before it propagates, so no waiter is left blocked.
func (t *Drives) record(dr *drive, d Design, cfg Config) (res *Result, err error) {
	rs := newResetStream(stepCount(cfg))
	defer func() {
		t.mu.Lock()
		if err == nil && res != nil {
			dr.rs = rs
			t.stats.Recorded++
		}
		t.mu.Unlock()
		close(dr.done)
	}()
	return runFast(d, cfg, rs)
}

// unitOf finds the replay unit holding d at horizon, and d's lane in it.
func (dr *drive) unitOf(d Design, horizon float64) (*replayUnit, int) {
	if len(dr.units) == 0 || !comparableDesign(d) {
		return nil, 0
	}
	for _, u := range dr.units {
		if u.horizon != horizon {
			continue
		}
		for lane, ud := range u.designs {
			if ud == d {
				return u, lane
			}
		}
	}
	return nil, 0
}

// fromUnit answers lane of u: the first member to get here replays the
// whole unit in lockstep, the others wait for it. It returns nil when the
// lane has no result (its replay failed, or the unit's replay panicked),
// and the caller replays alone.
func (t *Drives) fromUnit(u *replayUnit, lane int, cfg Config, rs *resetStream) *Result {
	t.mu.Lock()
	lead := !u.claimed
	u.claimed = true
	t.mu.Unlock()
	if lead {
		func() {
			defer close(u.done)
			u.results, _ = replayLanes(u.designs, cfg, rs)
			t.tally(&t.stats.Units)
		}()
	} else {
		<-u.done
	}
	if u.results == nil {
		return nil
	}
	return u.results[lane]
}

// resetStream is a drive stored as the envelope detector's reset stream:
// bit k of set marks a step where |emf| beat the decayed envelope, and vals
// holds the envelope after each such reset, in step order. Between resets
// the envelope only decays, so this is all a replay needs — about a quarter
// of the steps reset for a resonant sine at 1 ms, which keeps a drive near
// a quarter of the size of its raw EMF trace. vals grows in fixed chunks,
// so recording never copies and a stream retains at most one partly
// filled chunk beyond what it holds.
type resetStream struct {
	set  []uint64
	vals []*[resetChunk]float64
	n    int // reset values held
}

// resetChunk is the number of reset values per chunk (4 KB).
const resetChunk = 512

func newResetStream(steps int) *resetStream {
	return &resetStream{set: make([]uint64, (steps+63)/64)}
}

func (r *resetStream) add(k int, env float64) {
	r.set[k>>6] |= 1 << (k & 63)
	if r.n%resetChunk == 0 {
		r.vals = append(r.vals, new([resetChunk]float64))
	}
	r.vals[r.n/resetChunk][r.n%resetChunk] = env
	r.n++
}

// replay runs the slow side of a prepared, untuned (d, cfg) against a
// recorded drive: a one-lane replayLanes.
func replay(d Design, cfg Config, rs *resetStream) (*Result, error) {
	results, err := replayLanes([]Design{d}, cfg, rs)
	if le := (*LaneError)(nil); errors.As(err, &le) {
		err = le.Err
	}
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// replayStepHook, when non-nil, is called for every active replay lane at
// every step; a non-nil return drops that lane. It exists solely so tests
// can force a lane out mid-replay — production never sets it.
var replayStepHook func(step, lane int) error

// replayLanes runs the slow sides of prepared, untuned designs that share
// one recorded drive, in lockstep: each step decodes the reset stream and
// advances the envelope once, samples the excitation frequency once, and
// then steps every lane's slow side (slowSide.stepEnv) with that envelope.
// The envelope depends on the drive alone, so every lane sees exactly the
// values it would see replayed alone, and each result is bit-identical to
// RunFast. Work counters are those of the RunFast each lane stands in for:
// an untuned run bakes its model exactly once.
//
// results has len(designs). A lane that fails drops out without disturbing
// the others: its slot is nil and the returned error (an errors.Join of
// *LaneError values) names it.
func replayLanes(designs []Design, cfg Config, rs *resetStream) ([]*Result, error) {
	start := time.Now()
	results := make([]*Result, len(designs))
	var laneErrs []error
	type lane struct {
		index int
		slow  *slowSide
	}
	active := make([]lane, 0, len(designs))
	for i, d := range designs {
		slow, err := newSlowSide(d, cfg.DtSlow)
		if err != nil {
			laneErrs = append(laneErrs, &LaneError{Lane: i, Err: err})
			continue
		}
		active = append(active, lane{i, slow})
	}
	if len(active) == 0 {
		return results, errors.Join(laneErrs...)
	}
	envDecay := active[0].slow.envDecay // a constant of dt, equal in every lane
	env := 0.0
	nSteps := stepCount(cfg)
	next := 0
	hook := replayStepHook
	for k := 0; k < nSteps && len(active) > 0; k++ {
		env *= envDecay
		if rs.set[k>>6]&(1<<(k&63)) != 0 {
			env = rs.vals[next/resetChunk][next%resetChunk]
			next++
		}
		excf := cfg.Source.DominantFreq(float64(k) * cfg.DtSlow)
		if hook != nil {
			for j := 0; j < len(active); {
				if err := hook(k, active[j].index); err != nil {
					laneErrs = append(laneErrs, &LaneError{Lane: active[j].index, Err: err})
					last := len(active) - 1
					active[j] = active[last]
					active = active[:last]
					continue
				}
				j++
			}
		}
		// One slow-side step per lane. The lanes' dependency chains are
		// independent, so the processor overlaps consecutive lanes' steps.
		for _, ln := range active {
			ln.slow.env = env
			ln.slow.stepEnv(0, excf)
		}
	}
	elapsed := time.Since(start)
	for _, ln := range active {
		res := &Result{Steps: nSteps, Rebuilds: 1}
		ln.slow.finish(res, cfg.Horizon)
		res.Elapsed = elapsed
		results[ln.index] = res
	}
	return results, errors.Join(laneErrs...)
}
