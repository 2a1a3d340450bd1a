package sim

import (
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
// drive as the stepping loop goes. Every later sighting replays it,
// stepping only the slow side; one that arrives while the recording run is
// still in flight runs plain RunFast. Results are bit-identical to
// RunFast: the replay feeds the envelope the values RunFast computed and
// then runs the same slow-side body (slowSide.stepEnv). A design is shared
// only when it is untuned, does not record waveforms, and its Source is
// comparable (usable as a map key); any other design runs plain RunFast.
//
// The zero value is ready to use. Drives is safe for concurrent use.
type Drives struct {
	mu sync.Mutex
	m  map[driveKey]*resetStream // nil value: the drive is being recorded
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

// RunFast simulates the design exactly as the package-level RunFast does,
// sharing the design's drive with the other runs of the table.
func (t *Drives) RunFast(d Design, cfg Config) (*Result, error) {
	if d.Tuner != nil || cfg.RecordWaveforms || cfg.Source == nil ||
		!reflect.ValueOf(cfg.Source).Comparable() {
		return RunFast(d, cfg)
	}
	if err := prepare(d, &cfg); err != nil {
		return nil, err
	}
	key := driveKey{
		h:     d.Harv,
		rin:   d.Mult.InputR,
		dt:    cfg.DtSlow,
		gap:   initialGap(d),
		steps: stepCount(cfg),
		src:   cfg.Source,
	}
	t.mu.Lock()
	stream, seen := t.m[key]
	if !seen {
		if t.m == nil {
			t.m = make(map[driveKey]*resetStream)
		}
		t.m[key] = nil
	}
	t.mu.Unlock()

	switch {
	case stream != nil:
		return replay(d, cfg, stream)
	case seen: // another run is recording this drive
		return runFast(d, cfg, nil)
	}
	rs := newResetStream(key.steps)
	res, err := runFast(d, cfg, rs)
	t.mu.Lock()
	if err == nil {
		t.m[key] = rs
	} else {
		delete(t.m, key)
	}
	t.mu.Unlock()
	return res, err
}

// replay runs the slow side of a prepared, untuned (d, cfg) against a
// recorded drive. Its work counters are those of the RunFast it stands in
// for: an untuned run bakes its model exactly once.
func replay(d Design, cfg Config, rs *resetStream) (*Result, error) {
	start := time.Now()
	slow, err := newSlowSide(d, cfg.DtSlow)
	if err != nil {
		return nil, err
	}
	nSteps := stepCount(cfg)
	next := 0
	for k := 0; k < nSteps; k++ {
		slow.env *= slow.envDecay
		if rs.set[k>>6]&(1<<(k&63)) != 0 {
			slow.env = rs.vals[next/resetChunk][next%resetChunk]
			next++
		}
		slow.stepEnv(0, cfg.Source.DominantFreq(float64(k)*cfg.DtSlow))
	}
	res := &Result{Steps: nSteps, Rebuilds: 1}
	slow.finish(res, cfg.Horizon)
	res.Elapsed = time.Since(start)
	return res, nil
}
