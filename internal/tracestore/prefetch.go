package tracestore

import (
	"errors"
	"io"
	"slices"
	"time"

	"falcondown/internal/emleak"
)

// Batched passes. The attack consumes a campaign as fixed-size observation
// batches (shards), in corpus order — batch k holds observations
// [k·n, (k+1)·n) — which is what lets it fold per-batch partial statistics
// in a fixed order and stay bit-identical at any parallelism. ForEachBatch
// is the one loop that cuts a Source into batches; BatchIterator runs it on
// a reader goroutine that stays a bounded number of batches ahead of the
// consumer, so decode latency (disk reads, CRC verification, robust
// preprocessing) overlaps with the correlation math.

// ForEachBatch makes one pass over src, calling fn on consecutive batches
// of n observations (the last may be shorter) in corpus order. fn must not
// keep the batch: its backing array carries the next one. A Next that
// fails with ErrTransient is retried after backoff[k] for the k-th failure
// in a row, on the contract that a transient failure has not consumed an
// observation; past the schedule (nil disables retries) the error is
// returned. An error from fn stops the pass and is returned as is.
func ForEachBatch(src Source, n int, backoff []time.Duration, fn func(batch []emleak.Observation) error) error {
	it, err := src.Iterate()
	if err != nil {
		return err
	}
	defer it.Close()
	batch := make([]emleak.Observation, 0, n)
	attempts := 0
	for {
		o, err := it.Next()
		if err == io.EOF {
			if len(batch) > 0 {
				return fn(batch)
			}
			return nil
		}
		if err != nil {
			if errors.Is(err, ErrTransient) && attempts < len(backoff) {
				time.Sleep(backoff[attempts])
				attempts++
				continue
			}
			return err
		}
		attempts = 0
		batch = append(batch, o)
		if len(batch) == n {
			if err := fn(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
}

// BatchIterator yields the batches of ForEachBatch, decoded ahead of the
// consumer by a bounded prefetch pipeline. It is single-consumer; Close
// releases the reader goroutine.
type BatchIterator struct {
	ch   chan prefetched
	quit chan struct{}
	done bool
}

// prefetched is one decoded batch or the pass-ending error.
type prefetched struct {
	batch []emleak.Observation
	err   error // io.EOF after the final batch
}

// errClosed stops the reader's pass once the consumer has closed.
var errClosed = errors.New("tracestore: batch iterator closed")

// IterateBatches starts a prefetching ForEachBatch pass over src. depth
// bounds how many decoded batches may be in flight ahead of the consumer.
// Any failure, including one to start the pass, arrives from Next.
func IterateBatches(src Source, batchObs, depth int, backoff []time.Duration) *BatchIterator {
	b := &BatchIterator{
		ch:   make(chan prefetched, max(depth, 1)),
		quit: make(chan struct{}),
	}
	go b.read(src, max(batchObs, 1), backoff, b.quit)
	return b
}

// read is the prefetch pipeline: it hands off a copy of each batch, then
// the pass's end. quit is captured by value so a concurrent Close cannot
// race the field.
func (b *BatchIterator) read(src Source, batchObs int, backoff []time.Duration, quit <-chan struct{}) {
	send := func(p prefetched) error {
		select {
		case b.ch <- p:
			return nil
		case <-quit:
			return errClosed
		}
	}
	err := ForEachBatch(src, batchObs, backoff, func(batch []emleak.Observation) error {
		return send(prefetched{batch: slices.Clone(batch)})
	})
	switch err {
	case errClosed:
		return
	case nil:
		err = io.EOF
	}
	// send fails only with errClosed, once nothing waits for the end.
	_ = send(prefetched{err: err})
}

// Next returns the next batch in corpus order, or io.EOF after the last
// one. Once an error (including io.EOF) is returned, the iterator is
// exhausted.
func (b *BatchIterator) Next() ([]emleak.Observation, error) {
	if b.done {
		return nil, io.EOF
	}
	p := <-b.ch
	if p.err != nil {
		b.done = true
		return nil, p.err
	}
	return p.batch, nil
}

// Close stops the reader goroutine and discards undelivered batches. Safe
// to call at any point, including after Next returned an error.
func (b *BatchIterator) Close() error {
	if b.quit != nil {
		close(b.quit)
		b.quit = nil
	}
	b.done = true
	return nil
}
