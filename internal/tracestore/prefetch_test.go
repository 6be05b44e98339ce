package tracestore

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"falcondown/internal/emleak"
)

func TestPrefetchBatchesPreserveOrder(t *testing.T) {
	// Over a corpus the walker decodes into reused observations, so each
	// batch handed off must own its data: keeping every batch to the end
	// must still give the corpus back.
	obs := testCampaign(t, 11)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	writeCorpus(t, path, obs, Options{ChunkObs: 3})
	corpus, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{NewSliceSource(8, obs), corpus} {
		it := IterateBatches(src, 4, 2, nil)
		var got []emleak.Observation
		sizes := []int{}
		for {
			b, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, len(b))
			got = append(got, b...)
		}
		if len(sizes) != 3 || sizes[0] != 4 || sizes[1] != 4 || sizes[2] != 3 {
			t.Fatalf("batch sizes %v, want [4 4 3]", sizes)
		}
		sameObservations(t, obs, got)
		// Exhausted iterators stay exhausted.
		if _, err := it.Next(); err != io.EOF {
			t.Fatalf("post-EOF Next: %v", err)
		}
		it.Close()
	}
}

func TestPrefetchEarlyCloseReleasesReader(t *testing.T) {
	obs := testCampaign(t, 64)
	it := IterateBatches(NewSliceSource(8, obs), 1, 1, nil)
	if _, err := it.Next(); err != nil {
		t.Fatal(err)
	}
	// With depth 1 and 64 pending observations the reader is blocked on
	// its channel; Close must unblock it (the race detector plus goroutine
	// accounting in -race CI would flag a leak).
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil { // double Close is safe
		t.Fatal(err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("Next after Close: %v", err)
	}
}

// transientBatchSource fails the first Next of every pass with a
// transient error.
type transientBatchSource struct {
	inner Source
	fails int
}

func (s *transientBatchSource) N() int     { return s.inner.N() }
func (s *transientBatchSource) Count() int { return s.inner.Count() }
func (s *transientBatchSource) Iterate() (Iterator, error) {
	it, err := s.inner.Iterate()
	if err != nil {
		return nil, err
	}
	return &transientBatchIterator{inner: it, src: s}, nil
}

type transientBatchIterator struct {
	inner Iterator
	src   *transientBatchSource
	n     int
}

func (it *transientBatchIterator) Next() (emleak.Observation, error) {
	it.n++
	if it.n == 1 {
		it.src.fails++
		return emleak.Observation{}, ErrTransient
	}
	return it.inner.Next()
}

func (it *transientBatchIterator) Close() error { return it.inner.Close() }

func TestPrefetchRetriesTransient(t *testing.T) {
	obs := testCampaign(t, 6)
	src := &transientBatchSource{inner: NewSliceSource(8, obs)}

	// Without a backoff schedule the transient error is terminal.
	it := IterateBatches(src, 4, 2, nil)
	if _, err := it.Next(); !errors.Is(err, ErrTransient) {
		t.Fatalf("unretried transient: %v", err)
	}
	it.Close()

	// With one, the full corpus arrives.
	it = IterateBatches(src, 4, 2, []time.Duration{0})
	defer it.Close()
	total := 0
	for {
		b, err := it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		total += len(b)
	}
	if total != len(obs) {
		t.Fatalf("retried pass yielded %d observations, want %d", total, len(obs))
	}
	if src.fails != 2 {
		t.Fatalf("transient injected %d times, want 2 (one per pass)", src.fails)
	}
}

// failingSource cannot start a pass.
type failingSource struct{ Source }

var errNoPass = errors.New("cannot start a pass")

func (failingSource) Iterate() (Iterator, error) { return nil, errNoPass }

func TestPrefetchIterateFailureArrivesFromNext(t *testing.T) {
	it := IterateBatches(failingSource{NewSliceSource(8, testCampaign(t, 3))}, 4, 2, nil)
	defer it.Close()
	if _, err := it.Next(); !errors.Is(err, errNoPass) {
		t.Fatalf("first Next: %v, want the Iterate failure", err)
	}
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("Next after the failure: %v, want io.EOF", err)
	}
}
