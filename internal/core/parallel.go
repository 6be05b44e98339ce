package core

// Deterministic parallel pass engine. The attack's corpus passes dominate
// its runtime, and the per-observation work (hypothesis×sample Pearson
// updates) is embarrassingly parallel — but floating-point addition is not
// associative, so a naive "merge partials in completion order" scheme
// returns different bits on every run and across worker counts, which
// would break the repo's bit-for-bit contracts (slice vs. streamed paths,
// checkpointed vs. fresh runs, the recovery harness's regression fixtures).
//
// The engine therefore pins a canonical reduction that is independent of
// the worker count:
//
//   - the corpus is cut into fixed shards of shardObs consecutive
//     observations (a property of the corpus, never of the scheduler);
//   - each shard is accumulated sequentially, in corpus order, into a
//     zero-state partial of every job;
//   - shard partials are folded into the main jobs in strict shard-index
//     order (a left fold: ((J ⊕ P₀) ⊕ P₁) ⊕ P₂ …).
//
// The fused kernels (fusedJob) build a shard's partial in registers and
// fold it straight into the job, so the serial path needs no partial
// engine at all. The parallel path folds a shard the same way when it is
// its job block's next one; only a shard that arrives early builds a
// partial, parked until its turn and recycled once it has been merged.
//
// Workers race to take tiles, but every job takes its shards in shard
// order, so the sequence of floating-point operations hitting the
// main accumulators is identical for one worker, eight workers, or the
// single-threaded serialPass — and identical to feedSlice on the same
// observations. Determinism comes from the pinned order, not from any
// associativity assumption. The differential suite (parallel_test.go)
// proves the equivalence end to end.

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/obs"
	"falcondown/internal/tracestore"
)

// shardObs is the canonical shard size: observations [k·64, (k+1)·64)
// form shard k. It is a constant of the reduction (baked into every
// result's bit pattern), NOT a tuning knob — changing it changes the
// round-off pattern of every correlation in the repo.
const shardObs = 64

// fusedJob is a job with a shard-fused kernel: fold(shard) folds the
// shard's partial into the job's own sums, bit-identical to observing the
// shard into a zero-state clone and merging that clone (DESIGN.md §3.8).
// On a zero-state job it therefore leaves exactly the clone's partial.
type fusedJob interface {
	fold(shard []emleak.Observation)
}

// referenceFold, set only by tests, sends every job through the per-trace
// reference (observe into a zero-state clone, then merge) instead of its
// fused kernel, so the differential suite can compare the two end to end.
var referenceFold bool

// MaxWorkers is the largest Config.Workers value the engine accepts from
// user input. Results are bit-identical at any worker count, so a huge
// value is never wrong — but each worker pins shard-sized buffers and a
// tile queue slot, so an absurd count (a typo like -workers 1000000) only
// wastes memory. ValidateWorkers rejects it up front instead of letting
// the scheduler silently oversubscribe.
const MaxWorkers = 1024

// ValidateWorkers checks a user-supplied worker count: 0 means one worker
// per available CPU, negatives and values above MaxWorkers are errors.
// CLI flags and campaign specs both funnel through this so a bad value is
// a clear rejection, not a silent fallback.
func ValidateWorkers(w int) (int, error) {
	if w < 0 {
		return 0, fmt.Errorf("core: workers must be >= 0 (0 = one per CPU), got %d", w)
	}
	if w > MaxWorkers {
		return 0, fmt.Errorf("core: workers %d exceeds the %d cap (results are identical at any count; more workers only waste memory)", w, MaxWorkers)
	}
	return w, nil
}

// effectiveWorkers resolves a Config.Workers value: zero or negative
// means one worker per available CPU.
func effectiveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// fused returns j's fused kernel, or nil when j runs per-trace observe.
func fused(j job) fusedJob {
	if f, ok := j.(fusedJob); ok && !referenceFold {
		return f
	}
	return nil
}

// accumulateShard builds one shard's partial in a zero-state accumulator:
// through the fused kernel when the job has one, else observation by
// observation. The parallel tiles and the fleet's shard partials funnel
// through it.
func accumulateShard(c job, shard []emleak.Observation) {
	if f := fused(c); f != nil {
		f.fold(shard)
		return
	}
	for _, o := range shard {
		c.observe(o)
	}
}

// foldShard folds one shard's partial into each job — the canonical
// per-shard step of the serial path. A fused job folds in place; any other
// job accumulates a zero-state clone and merges it.
func foldShard(jobs []job, shard []emleak.Observation) {
	sp := obs.StartSpan(mSweepShardSeconds)
	for _, j := range jobs {
		if f := fused(j); f != nil {
			f.fold(shard)
			continue
		}
		foldByObserve(j, shard)
	}
	sp.End()
}

// forEachShard walks src in canonical shards from shard first on, under
// the sweep's transient retry schedule (tracestore.ForEachBatch); fn must
// not keep the shard or its observations.
func forEachShard(src Source, first int, fn func(shard []emleak.Observation) error) error {
	return tracestore.ForEachBatch(src, first*shardObs, shardObs, sweepBackoff, fn)
}

// serialPass is the single-threaded reference implementation of the
// canonical reduction: shard, accumulate, fold, in corpus order. The
// differential suite compares every parallel run against it.
func serialPass(src Source, jobs []job) error {
	return forEachShard(src, 0, func(shard []emleak.Observation) error {
		foldShard(jobs, shard)
		return nil
	})
}

// runPass drives one logical campaign pass for all jobs with the given
// worker count (≤0 meaning GOMAXPROCS) through the canonical sharded
// reduction: across the fleet when src carries a distributor, else
// serially for one worker and via the tiled parallel engine otherwise —
// so the result bits never depend on the topology.
func runPass(src Source, jobs []job, workers int) error {
	if len(jobs) == 0 {
		return nil
	}
	if obs.Enabled() {
		start := time.Now()
		defer func() { observePass(src.Count(), jobs, time.Since(start)) }()
	}
	if ds, ok := src.(*distSource); ok {
		p := newDistPass(ds, jobs)
		if err := ds.dist.RunPass(p); err != nil {
			return err
		}
		return p.incomplete()
	}
	workers = effectiveWorkers(workers)
	if workers <= 1 {
		return serialPass(src, jobs)
	}
	return parallelPass(src, jobs, workers)
}

// tile is one unit of parallel work: fold one corpus shard into one
// block of jobs.
type tile struct {
	shard int
	obs   []emleak.Observation
	block int
}

// holdInPlaceFolds, set only by tests, makes an in-place fold wait before
// it ends until a later shard's partial of its block is parked, so the
// mixed fold paths meet on any scheduler. Only one fold of a pass waits at
// a time, and the end of dispatch releases it, so the pass cannot stall.
var holdInPlaceFolds bool

// inOrder folds shard partials into a block of jobs in strict
// shard-index order: a partial that arrives before its turn waits in
// pending until every earlier shard has folded. The parallel engine's
// blockFolder and the fleet's DistPass both fold through it, each under
// its own lock.
type inOrder struct {
	jobs    []job
	next    int           // next shard index to fold
	pending map[int][]job // partials parked until their turn
}

// drain merges the parked partials of shards next, next+1, … while they
// are present; recycle, when non-nil, receives each merged partial.
func (o *inOrder) drain(recycle func([]job)) {
	for p, ok := o.pending[o.next]; ok; p, ok = o.pending[o.next] {
		delete(o.pending, o.next)
		for i, j := range o.jobs {
			j.merge(p[i])
		}
		if recycle != nil {
			recycle(p)
		}
		o.next++
	}
}

// blockFolder owns one block of main jobs and folds shards into them in
// strict shard-index order. A tile whose shard is the block's next folds
// straight into the jobs through foldShard, as the serial pass does. A
// tile that arrives early accumulates into zero-state partials, which are
// parked until their turn comes and then merged; the number parked is
// bounded by the number of tiles in flight (prefetch depth × blocks).
// Merged partials go on a free list and carry a later early tile, so a
// pass allocates about one partial per tile in flight.
type blockFolder struct {
	mu sync.Mutex
	inOrder
	free [][]job

	// Under holdInPlaceFolds: held is the pass's one waiting fold, and
	// parked is signalled when a partial is parked and when dispatch ends,
	// which sets dispatched.
	held       *atomic.Bool
	parked     *sync.Cond
	dispatched bool
}

// fold folds tile t into the block. The in-place fold runs outside the
// lock: next advances only when it ends, so meanwhile no other tile of
// the block is the next one and every partial deposited waits for it.
// Either way each main job takes its shards' adds in shard order, so its
// bits are the serial pass's.
func (f *blockFolder) fold(t tile) {
	f.mu.Lock()
	inPlace := t.shard == f.next
	f.mu.Unlock()
	if !inPlace {
		sp := obs.StartSpan(mSweepShardSeconds)
		partial := f.partial()
		for _, c := range partial {
			accumulateShard(c, t.obs)
		}
		f.deposit(t.shard, partial)
		sp.End()
		return
	}
	foldShard(f.jobs, t.obs)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.held != nil && f.held.CompareAndSwap(false, true) {
		for len(f.pending) == 0 && !f.dispatched {
			f.parked.Wait()
		}
		f.held.Store(false)
	}
	f.next++
	f.drain(f.recycle)
}

// partial returns zero-state partials of the block's jobs: a merged set
// from the free list, reset, or fresh clones.
func (f *blockFolder) partial() []job {
	f.mu.Lock()
	var p []job
	if n := len(f.free); n > 0 {
		p = f.free[n-1]
		f.free = f.free[:n-1]
	}
	f.mu.Unlock()
	if p == nil {
		p = make([]job, len(f.jobs))
		for i, j := range f.jobs {
			p[i] = j.clone()
		}
		return p
	}
	for _, c := range p {
		c.reset()
	}
	return p
}

// deposit parks an early tile's partial and merges whatever is now due.
func (f *blockFolder) deposit(shard int, partial []job) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.pending[shard] = partial
	f.drain(f.recycle)
	if f.parked != nil {
		f.parked.Broadcast()
	}
}

// recycle puts a merged partial on the free list; f.mu must be held.
func (f *blockFolder) recycle(p []job) { f.free = append(f.free, p) }

// parallelPass is the tiled parallel engine. A prefetching reader decodes
// the corpus into canonical shards ahead of the accumulators; the
// dispatcher crosses each shard with the job blocks into tiles; workers
// fold each tile in place when it is its block's next shard and into a
// parked partial otherwise. Block partitioning may depend on the worker
// count — each job takes its shards in shard order regardless of which
// block (or worker) carried them, so the bits cannot.
func parallelPass(src Source, jobs []job, workers int) error {
	nBlocks := min(len(jobs), workers)
	per := (len(jobs) + nBlocks - 1) / nBlocks
	var held atomic.Bool
	folders := make([]*blockFolder, 0, nBlocks)
	for lo := 0; lo < len(jobs); lo += per {
		f := &blockFolder{inOrder: inOrder{jobs: jobs[lo:min(lo+per, len(jobs))], pending: make(map[int][]job)}}
		if holdInPlaceFolds {
			f.held, f.parked = &held, sync.NewCond(&f.mu)
		}
		folders = append(folders, f)
	}

	tiles := make(chan tile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tiles {
				folders[t.block].fold(t)
			}
		}()
	}

	readErr := prefetchShards(src, workers, func(k int, shard []emleak.Observation) {
		for b := range folders {
			tiles <- tile{shard: k, obs: shard, block: b}
		}
	})
	close(tiles)
	if holdInPlaceFolds {
		for _, f := range folders {
			f.mu.Lock()
			f.dispatched = true
			f.parked.Broadcast()
			f.mu.Unlock()
		}
	}
	wg.Wait()
	return readErr
}

// prefetchShards hands send every canonical shard of src with its index,
// in corpus order, from a reader that decodes up to 2·workers shards
// ahead; send may keep the shard. It returns the pass's error.
func prefetchShards(src Source, workers int, send func(k int, shard []emleak.Observation)) error {
	bi := tracestore.IterateBatches(src, shardObs, 2*workers, sweepBackoff)
	defer bi.Close()
	for k := 0; ; k++ {
		shard, err := bi.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		send(k, shard)
	}
}

// parallelMap drives fn once per observation, tagged with its corpus
// index, across the given number of workers. fn must be safe for
// concurrent calls on distinct indices; because the output is keyed by
// index (not by arrival), the aggregate result is identical for every
// worker count. Used by the robust preprocessing's per-trace passes.
func parallelMap(src Source, workers int, fn func(idx int, o emleak.Observation)) error {
	workers = effectiveWorkers(workers)
	if workers <= 1 {
		idx := 0
		return forEachShard(src, 0, func(shard []emleak.Observation) error {
			for _, o := range shard {
				fn(idx, o)
				idx++
			}
			return nil
		})
	}
	type span struct {
		base int
		obs  []emleak.Observation
	}
	spans := make(chan span, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range spans {
				for i, o := range s.obs {
					fn(s.base+i, o)
				}
			}
		}()
	}
	readErr := prefetchShards(src, workers, func(k int, shard []emleak.Observation) {
		spans <- span{base: k * shardObs, obs: shard}
	})
	close(spans)
	wg.Wait()
	return readErr
}
