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
// engine at all; the parallel path still builds partials, because they
// finish out of order, and recycles each one once it has been folded.
//
// Workers race to *produce* shard partials, but the fold consumes them in
// shard order, so the sequence of floating-point operations hitting the
// main accumulators is identical for one worker, eight workers, or the
// single-threaded serialPass — and identical to feedSlice on the same
// observations. Determinism comes from the pinned order, not from any
// associativity assumption. The differential suite (parallel_test.go)
// proves the equivalence end to end.

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
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

// mergeJob is a passJob whose accumulation distributes over corpus
// shards: clone() yields a zero-state accumulator sharing the job's
// read-only configuration, merge() folds a clone's sums back in, and
// reset() returns a clone to its zero state so it can carry another
// shard. merge must be a plain field-wise combination so that folding
// shard partials in shard order reproduces the serial pass bit-for-bit.
type mergeJob interface {
	passJob
	clone() mergeJob
	merge(mergeJob)
	reset()
}

// fusedJob is a mergeJob with a shard-fused kernel: fold(shard) folds the
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
func fused(j mergeJob) fusedJob {
	if f, ok := j.(fusedJob); ok && !referenceFold {
		return f
	}
	return nil
}

// accumulateShard builds one shard's partial in a zero-state accumulator:
// through the fused kernel when the job has one, else observation by
// observation. The parallel tiles and the fleet's shard partials funnel
// through it.
func accumulateShard(c mergeJob, shard []emleak.Observation) {
	if f := fused(c); f != nil {
		f.fold(shard)
		return
	}
	for _, o := range shard {
		c.observe(o)
	}
}

// foldShard folds one shard's partial into each job — the canonical
// per-shard step of the serial path and feedSlice. A fused job folds in
// place; any other job accumulates a zero-state clone and merges it.
func foldShard(jobs []mergeJob, shard []emleak.Observation) {
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

// forEachShard drives fn over the corpus in canonical shards using a
// plain sequential iterator, retrying transient errors with the sweep
// backoff contract.
func forEachShard(src Source, fn func(shard []emleak.Observation) error) error {
	it, err := src.Iterate()
	if err != nil {
		return err
	}
	defer it.Close()
	shard := make([]emleak.Observation, 0, shardObs)
	attempts := 0
	for {
		o, err := it.Next()
		if err == io.EOF {
			if len(shard) > 0 {
				return fn(shard)
			}
			return nil
		}
		if err != nil {
			if errors.Is(err, tracestore.ErrTransient) && attempts < len(sweepBackoff) {
				time.Sleep(sweepBackoff[attempts])
				attempts++
				continue
			}
			return err
		}
		attempts = 0
		shard = append(shard, o)
		if len(shard) == shardObs {
			if err := fn(shard); err != nil {
				return err
			}
			shard = shard[:0]
		}
	}
}

// serialPass is the single-threaded reference implementation of the
// canonical reduction: shard, accumulate, fold, in corpus order. The
// differential suite compares every parallel run against it.
func serialPass(src Source, jobs []mergeJob) error {
	return forEachShard(src, func(shard []emleak.Observation) error {
		foldShard(jobs, shard)
		return nil
	})
}

// runPass drives one logical campaign pass for all jobs with the given
// worker count (≤0 meaning GOMAXPROCS). Jobs that support merging run
// through the canonical sharded reduction — serially for one worker,
// via the tiled parallel engine otherwise — so the result bits never
// depend on the worker count. Jobs that do not support merging fall back
// to a plain sequential sweep.
func runPass(src Source, jobs []passJob, workers int) error {
	if len(jobs) == 0 {
		return nil
	}
	if obs.Enabled() {
		start := time.Now()
		defer func() { observePass(src.Count(), jobs, time.Since(start)) }()
	}
	mjobs := make([]mergeJob, len(jobs))
	for i, j := range jobs {
		mj, ok := j.(mergeJob)
		if !ok {
			return sweep(src, jobs)
		}
		mjobs[i] = mj
	}
	if ds, ok := src.(*distSource); ok {
		if p, wired := newDistPass(ds, mjobs); wired {
			if err := ds.dist.RunPass(p); err != nil {
				return err
			}
			return p.incomplete()
		}
		// A job that cannot cross the wire runs against the local view.
		src = ds.Source
	}
	workers = effectiveWorkers(workers)
	if workers <= 1 {
		return serialPass(src, mjobs)
	}
	return parallelPass(src, mjobs, workers)
}

// tile is one unit of parallel work: accumulate one corpus shard into
// zero-state partials of one block of jobs.
type tile struct {
	shard int
	obs   []emleak.Observation
	block int
}

// blockFolder owns one block of main jobs and folds shard partials into
// them in strict shard-index order, parking early arrivals until their
// turn comes. The number of parked partials is bounded by the number of
// tiles in flight (prefetch depth × blocks), so memory stays bounded.
// Folded partials go on a free list and carry a later shard of the same
// pass, so a pass allocates about one partial per tile in flight rather
// than one per shard.
type blockFolder struct {
	mu      sync.Mutex
	jobs    []mergeJob
	next    int
	pending map[int][]mergeJob
	free    [][]mergeJob
}

// partial returns zero-state partials of the block's jobs: a folded set
// from the free list, reset, or fresh clones.
func (f *blockFolder) partial() []mergeJob {
	f.mu.Lock()
	var p []mergeJob
	if n := len(f.free); n > 0 {
		p = f.free[n-1]
		f.free = f.free[:n-1]
	}
	f.mu.Unlock()
	if p == nil {
		p = make([]mergeJob, len(f.jobs))
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

func (f *blockFolder) deposit(shard int, partial []mergeJob) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pending == nil {
		f.pending = make(map[int][]mergeJob)
	}
	f.pending[shard] = partial
	for {
		p, ok := f.pending[f.next]
		if !ok {
			return
		}
		delete(f.pending, f.next)
		for i, j := range f.jobs {
			j.merge(p[i])
		}
		f.free = append(f.free, p)
		f.next++
	}
}

// parallelPass is the tiled parallel engine. A prefetching reader decodes
// the corpus into canonical shards ahead of the accumulators; the
// dispatcher crosses each shard with the job blocks into tiles; workers
// accumulate tiles into zero-state partials; per-block folders consume
// the partials in shard order and recycle them. Block partitioning may
// depend on the worker count — each job's partials are folded in shard
// order regardless of which block (or worker) carried it, so the bits
// cannot.
func parallelPass(src Source, jobs []mergeJob, workers int) error {
	nBlocks := min(len(jobs), workers)
	per := (len(jobs) + nBlocks - 1) / nBlocks
	folders := make([]*blockFolder, 0, nBlocks)
	for lo := 0; lo < len(jobs); lo += per {
		folders = append(folders, &blockFolder{jobs: jobs[lo:min(lo+per, len(jobs))]})
	}

	bi, err := tracestore.IterateBatches(src, shardObs, 2*workers, sweepBackoff)
	if err != nil {
		return err
	}
	defer bi.Close()

	tiles := make(chan tile, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tiles {
				sp := obs.StartSpan(mSweepShardSeconds)
				f := folders[t.block]
				partial := f.partial()
				for _, c := range partial {
					accumulateShard(c, t.obs)
				}
				f.deposit(t.shard, partial)
				sp.End()
			}
		}()
	}

	var readErr error
	shard := 0
	for {
		obs, err := bi.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		for b := range folders {
			tiles <- tile{shard: shard, obs: obs, block: b}
		}
		shard++
	}
	close(tiles)
	wg.Wait()
	return readErr
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
		return forEachShard(src, func(shard []emleak.Observation) error {
			for _, o := range shard {
				fn(idx, o)
				idx++
			}
			return nil
		})
	}
	bi, err := tracestore.IterateBatches(src, shardObs, 2*workers, sweepBackoff)
	if err != nil {
		return err
	}
	defer bi.Close()
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
	var readErr error
	base := 0
	for {
		obs, err := bi.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		spans <- span{base: base, obs: obs}
		base += len(obs)
	}
	close(spans)
	wg.Wait()
	return readErr
}
