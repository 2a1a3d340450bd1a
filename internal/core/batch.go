package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/simcache"
)

// EngineBatch selects the lockstep K-point engine (sim.RunBatch) for
// design runs. Batch results are bit-identical per lane to EngineFast, so
// they share the fast engine's cache identity — see cacheEngineName.
const EngineBatch = "batch"

// cacheEngineName maps an engine selection to its content-address. The
// batch engine is an execution strategy, not a different simulator: its
// lanes are bit-identical to sim.RunFast, so its results are cached under
// the fast engine's name and the two populations of cache entries alias
// deliberately.
func cacheEngineName(name string) string {
	if name == EngineBatch {
		return EngineFast
	}
	return name
}

// BatchStats summarizes what the batch scheduler did for one design run.
type BatchStats struct {
	Points            int `json:"points"`            // design points considered
	Peeled            int `json:"cache_peeled"`      // answered by the cache before lanes launched
	Lanes             int `json:"lanes"`             // points simulated inside batches
	Chunks            int `json:"chunks"`            // sim.RunBatch invocations
	Rebuilds          int `json:"rebuilds"`          // ZOH bakes actually performed
	AmortizedRebuilds int `json:"rebuild_amortized"` // lane rebuilds answered by a shared bake
}

// maxBatchLanes caps one chunk's width. Wider batches amortize more but
// lose cancellation granularity (a chunk is abandoned whole on timeout)
// and overflow the benefit of the shared memo; 16 matches the kernel's
// sweet spot on current hardware.
const maxBatchLanes = 16

// cacheLookup and cacheInsert are the optional capabilities of a Runner
// the prepass uses to peel already-cached points out of a batch and to
// publish freshly batched results. *simcache.Cache implements both. An
// opaque Runner (a fault injector, a test double) implements neither: the
// prepass then peels nothing and publishes nothing, but it still batches
// every point, so those points never reach the opaque runner at all —
// only the points the prepass could not settle do.
type cacheLookup interface {
	Lookup(ctx context.Context, key, engine string) (*sim.Result, bool)
}
type cacheInsert interface {
	Insert(key, engine string, res *sim.Result)
}

// batchPoint is one unique design point resolved to its concrete
// simulation request, plus the run indices that share it (duplicate
// points such as CCF centre replicates share one result).
type batchPoint struct {
	key  string
	runs []int
	d    sim.Design
	cfg  sim.Config
}

// prewarmBatch runs the batch prepass for a design run's resolved
// requests: it peels the points the cache already holds, partitions the
// rest into K-lane chunks grouped by identical config (lanes must share
// the time base and excitation), and steps each chunk through
// sim.RunBatchStats. The returned slice holds, per point index, the
// warmed result or nil; every point the prepass could not settle —
// unresolved points, lane errors, unfingerprintable requests, a custom
// Engine — is left nil for the caller's per-point path with its full
// retry/timeout semantics.
//
// The prepass is strictly best-effort: it can only pre-pay work the
// per-point path would do anyway, never fail a run on its own.
func (p *Problem) prewarmBatch(ctx context.Context, reqs []runRequest, workers int) ([]*sim.Result, *BatchStats) {
	stats := &BatchStats{Points: len(reqs)}
	warm := make([]*sim.Result, len(reqs))
	if p.Engine != nil {
		// A custom engine is not sim.RunFast; batching would change results.
		return warm, stats
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lg := obs.FromContext(ctx)
	runner := p.Runner
	if runner == nil {
		runner = DefaultRunner
	}

	// Resolve points, dedup by cache key, and peel what the cache holds.
	lookup, _ := runner.(cacheLookup)
	insert, _ := runner.(cacheInsert)
	unique := make(map[string]*batchPoint, len(reqs))
	byCfg := make(map[string][]*batchPoint)
	for i, r := range reqs {
		if r.sc == nil {
			continue // unresolved: the run resolves itself per attempt
		}
		sc := *r.sc
		cfg := p.config(sc)
		key, err := simcache.Fingerprint(EngineFast, sc.Design, cfg)
		if err != nil {
			continue // uncacheable request: leave it to the direct path
		}
		if bp := unique[key]; bp != nil {
			bp.runs = append(bp.runs, i)
			warm[i] = warm[bp.runs[0]] // set when the first was peeled
			continue
		}
		bp := &batchPoint{key: key, runs: []int{i}, d: sc.Design, cfg: cfg}
		unique[key] = bp
		if lookup != nil {
			if res, ok := lookup.Lookup(ctx, key, EngineFast); ok {
				warm[i] = res
				stats.Peeled++
				continue
			}
		}
		cfgKey, err := simcache.Fingerprint(cfg)
		if err != nil {
			continue
		}
		byCfg[cfgKey] = append(byCfg[cfgKey], bp)
	}

	// Deterministic chunking: sorted config groups, stable point order
	// within each, chunk width balancing lane occupancy against workers.
	cfgKeys := make([]string, 0, len(byCfg))
	total := 0
	for k, pts := range byCfg {
		cfgKeys = append(cfgKeys, k)
		total += len(pts)
	}
	sort.Strings(cfgKeys)
	if total == 0 {
		return warm, stats
	}
	width := (total + workers - 1) / workers
	if width < 1 {
		width = 1
	}
	if width > maxBatchLanes {
		width = maxBatchLanes
	}
	type chunk struct {
		pts []*batchPoint
		cfg sim.Config
	}
	var chunks []chunk
	for _, ck := range cfgKeys {
		pts := byCfg[ck]
		for len(pts) > 0 {
			n := width
			if n > len(pts) {
				n = len(pts)
			}
			chunks = append(chunks, chunk{pts: pts[:n], cfg: pts[0].cfg})
			pts = pts[n:]
		}
	}
	stats.Chunks = len(chunks)

	// Run chunks across the worker pool. Each chunk is guarded the way the
	// per-point path guards a run: panics are contained (the points simply
	// fall through to the sequential path, whose own guard converts a
	// repeat panic into a typed error), and when the problem carries a
	// per-run deadline the chunk gets lanes×RunTimeout before it is
	// abandoned — mirroring runAttempt, the goroutine of an abandoned
	// chunk is left to finish in the background and its results discarded.
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		parallel = workers
	)
	if parallel > len(chunks) {
		parallel = len(chunks)
	}
	runChunk := func(c chunk) (results []*sim.Result, bs sim.BatchStats, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("core: batch chunk panicked: %v", r)
			}
		}()
		designs := make([]sim.Design, len(c.pts))
		for i, pt := range c.pts {
			designs[i] = pt.d
		}
		results, bs, _ = sim.RunBatchStats(designs, c.cfg)
		return results, bs, nil
	}
	execChunk := func(c chunk) {
		type out struct {
			results []*sim.Result
			bs      sim.BatchStats
			err     error
		}
		ch := make(chan out, 1)
		go func() {
			results, bs, err := runChunk(c)
			ch <- out{results, bs, err}
		}()
		var deadline <-chan time.Time
		if p.RunTimeout > 0 {
			tm := time.NewTimer(time.Duration(len(c.pts)) * p.RunTimeout)
			defer tm.Stop()
			deadline = tm.C
		}
		select {
		case o := <-ch:
			if o.err != nil {
				lg.Warn("batch chunk failed", "lanes", len(c.pts), "err", o.err.Error())
				return
			}
			mu.Lock()
			stats.Lanes += len(c.pts)
			stats.Rebuilds += o.bs.Rebuilds
			stats.AmortizedRebuilds += o.bs.AmortizedRebuilds
			mu.Unlock()
			for i, res := range o.results {
				if res == nil {
					continue // lane error: the point retries sequentially
				}
				// Each run index belongs to exactly one lane, so chunks
				// write disjoint slots of warm.
				for _, run := range c.pts[i].runs {
					warm[run] = res
				}
				if insert != nil {
					insert.Insert(c.pts[i].key, EngineFast, res)
				}
			}
		case <-deadline:
			lg.Warn("batch chunk abandoned past deadline", "lanes", len(c.pts))
		case <-ctx.Done():
		}
	}
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(chunks) {
					return
				}
				execChunk(chunks[i])
			}
		}()
	}
	wg.Wait()

	lg.Debug("batch prepass finished", "points", stats.Points, "peeled", stats.Peeled,
		"lanes", stats.Lanes, "chunks", stats.Chunks,
		"rebuilds", stats.Rebuilds, "amortized", stats.AmortizedRebuilds)
	return warm, stats
}
