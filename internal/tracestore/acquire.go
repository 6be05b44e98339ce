package tracestore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"falcondown/internal/emleak"
)

// Appender is the write side of a campaign as Acquire sees it. *Writer is
// the production implementation; fault-injection wrappers
// (internal/faultinject) interpose on it to exercise the append-failure
// paths.
type Appender interface {
	Append(o emleak.Observation) error
}

// AcquireOptions tunes the parallel campaign runner.
type AcquireOptions struct {
	// Workers is the number of acquisition goroutines; <= 0 uses
	// GOMAXPROCS. The written corpus is byte-identical for every worker
	// count: observation i depends only on (seed, i) and the victim's
	// configuration, and the collector commits observations in index
	// order.
	Workers int
	// Start is the index of the first observation to generate. A resumed
	// campaign (ResumeWriter) sets it to the count already durable on
	// disk; the schedule of the remaining observations is unchanged, so
	// the completed corpus is byte-identical to an uninterrupted run.
	Start int
	// Progress, when set, is called after each observation is committed,
	// with the number done so far (including Start) and the total.
	Progress func(done, total int)

	// afterClaim, set only by tests, runs after a worker claims index idx;
	// windowFull reports whether every reorder-window slot is taken.
	afterClaim func(idx int, windowFull func() bool)
}

// Acquire runs a known-plaintext campaign of count measurements against
// dev and streams observations [opts.Start, count) into w, through
// AcquireIndexed with one clone of dev per worker. Every observation's
// randomness is derived from (seed, index) via emleak.ObservationAt, so
// -workers is purely a throughput knob, never a reproducibility one. The
// caller owns w and must finalize it (Writer.Close, or Writer.Interrupt
// after cancellation).
func Acquire(ctx context.Context, dev *emleak.Device, seed uint64, count int, w Appender, opts AcquireOptions) error {
	return AcquireIndexed(ctx, count, w, opts, func() func(context.Context, uint64) (emleak.Observation, error) {
		local := dev.Clone(0) // noise reseeded per observation
		return func(_ context.Context, idx uint64) (emleak.Observation, error) {
			return emleak.ObservationAt(local, seed, idx)
		}
	})
}

// AcquireIndexed is the acquisition pipeline: workers claim indices
// [opts.Start, count) from a shared counter and measure them, and a
// collector commits the results to w strictly in index order. newMeasure
// is called once per worker and returns that worker's measurement, which
// must depend only on the index. The committed corpus is then the same
// for every worker count.
//
// Cancelling ctx stops acquisition promptly: workers drain, the already
// committed prefix stays intact in w, and the returned error wraps
// ctx.Err(). No goroutines outlive the call.
func AcquireIndexed(ctx context.Context, count int, w Appender, opts AcquireOptions,
	newMeasure func() func(ctx context.Context, idx uint64) (emleak.Observation, error)) error {
	if count < 0 {
		return fmt.Errorf("tracestore: negative campaign size %d", count)
	}
	if opts.Start < 0 {
		return fmt.Errorf("tracestore: negative resume index %d", opts.Start)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	todo := count - opts.Start
	if todo <= 0 {
		return nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > todo {
		workers = todo
	}

	type item struct {
		idx int
		obs emleak.Observation
		err error
	}
	// The reorder window bounds how far ahead of the writer any worker
	// may run, capping buffered observations at window size. A worker
	// takes its slot before it claims an index, so every claimed index
	// holds a slot and the lowest uncommitted one can always finish: a
	// claim made first could sit slotless while later indices fill the
	// window, and the collector frees slots only in index order.
	window := workers * 4
	sem := make(chan struct{}, window)
	results := make(chan item, window)
	var next atomic.Int64
	var failed atomic.Bool

	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		measure := newMeasure()
		go func() {
			defer wg.Done()
			for !failed.Load() {
				select {
				case sem <- struct{}{}:
				case <-ctx.Done():
					return
				}
				i := opts.Start + int(next.Add(1)) - 1
				if i >= count {
					<-sem
					return
				}
				if opts.afterClaim != nil {
					opts.afterClaim(i, func() bool { return len(sem) == cap(sem) })
				}
				o, err := measure(ctx, uint64(i))
				results <- item{idx: i, obs: o, err: err}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: commit observations in index order through a pending map
	// bounded by the reorder window.
	pending := make(map[int]emleak.Observation, window)
	want := opts.Start
	var firstErr error
	for it := range results {
		if firstErr == nil && ctx.Err() != nil {
			firstErr = fmt.Errorf("tracestore: acquisition interrupted at %d of %d observations: %w",
				want, count, ctx.Err())
			failed.Store(true)
		}
		if firstErr != nil {
			<-sem
			continue // drain
		}
		if it.err != nil {
			firstErr = fmt.Errorf("tracestore: observation %d: %w", it.idx, it.err)
			failed.Store(true)
			<-sem
			continue
		}
		pending[it.idx] = it.obs
		for {
			o, ok := pending[want]
			if !ok {
				break
			}
			delete(pending, want)
			if err := w.Append(o); err != nil {
				firstErr = err
				failed.Store(true)
				break
			}
			want++
			<-sem
			if opts.Progress != nil {
				opts.Progress(want, count)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("tracestore: acquisition interrupted at %d of %d observations: %w", want, count, err)
	}
	if want != count {
		return fmt.Errorf("tracestore: collector committed %d of %d observations", want-opts.Start, todo)
	}
	return nil
}
