package tracestore

import (
	"errors"
	"io"
	"slices"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/fft"
)

// Batched passes. The attack consumes a campaign as fixed-size observation
// batches (shards), in corpus order — batch k holds observations
// [k·n, (k+1)·n) — which is what lets it fold per-batch partial statistics
// in a fixed order and stay bit-identical at any parallelism. ForEachBatch
// is the one loop that cuts a Source into batches; BatchIterator runs it on
// a reader goroutine that stays a bounded number of batches ahead of the
// consumer, so decode latency (disk reads, CRC verification, robust
// preprocessing) overlaps with the correlation math.

// ForEachBatch makes one pass over src from observation start on (see
// IterateFrom), calling fn on consecutive batches of n observations (the
// last may be shorter) in corpus order. fn must not keep the batch or its
// observations' slices: the next batch reuses them. A Next that fails
// with ErrTransient is retried after backoff[k] for the k-th failure in a
// row, on the contract that a transient failure has not consumed an
// observation; past the schedule (nil disables retries) the error is
// returned. An error from fn stops the pass and is returned as is.
func ForEachBatch(src Source, start, n int, backoff []time.Duration, fn func(batch []emleak.Observation) error) error {
	return forEachBatch(src, start, n, backoff, func(batch []emleak.Observation, _ bool) error {
		return fn(batch)
	})
}

// intoIterator is an Iterator that can decode into an observation's
// existing slices (the corpus iterator).
type intoIterator interface {
	nextInto(o *emleak.Observation) error
}

// forEachBatch is ForEachBatch; fn also learns whether the batch's
// observations live in storage the walk reuses, rather than in slices the
// source handed out.
func forEachBatch(src Source, start, n int, backoff []time.Duration, fn func(batch []emleak.Observation, reused bool) error) error {
	it, err := IterateFrom(src, start)
	if err != nil {
		return err
	}
	defer it.Close()
	into, reused := it.(intoIterator)
	batch := make([]emleak.Observation, n)
	k, attempts := 0, 0
	for {
		if reused {
			err = into.nextInto(&batch[k])
		} else {
			batch[k], err = it.Next()
		}
		if err == io.EOF {
			if k > 0 {
				return fn(batch[:k], reused)
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
		k++
		if k == n {
			if err := fn(batch, reused); err != nil {
				return err
			}
			k = 0
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
	err := forEachBatch(src, 0, batchObs, backoff, func(batch []emleak.Observation, reused bool) error {
		if reused {
			return send(prefetched{batch: copyBatch(batch)})
		}
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

// copyBatch deep-copies a batch into one arena per element type, so the
// copy owns its data while the walk reuses the batch's.
func copyBatch(batch []emleak.Observation) []emleak.Observation {
	nc, ns := 0, 0
	for _, o := range batch {
		nc += len(o.CFFT)
		ns += len(o.Trace.Samples)
	}
	cf := make([]fft.Cplx, 0, nc)
	ss := make([]float64, 0, ns)
	out := make([]emleak.Observation, len(batch))
	for i, o := range batch {
		c0, s0 := len(cf), len(ss)
		cf = append(cf, o.CFFT...)
		ss = append(ss, o.Trace.Samples...)
		out[i] = emleak.Observation{
			CFFT:  cf[c0:len(cf):len(cf)],
			Trace: emleak.Trace{Samples: ss[s0:len(ss):len(ss)]},
		}
	}
	return out
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
