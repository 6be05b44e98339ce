package tracestore

import (
	"io"

	"falcondown/internal/emleak"
)

// Source is a replayable stream of observations: the attack's view of a
// campaign. Every Iterate call starts a fresh pass over the corpus, and
// concurrent iterators are independent, so multi-pass algorithms (the
// extend-and-prune rounds) and parallel consumers both work against disk
// corpora that never fit in memory.
type Source interface {
	// N returns the ring degree of the campaign's victim.
	N() int
	// Count returns the total number of observations.
	Count() int
	// Iterate starts a fresh sequential pass.
	Iterate() (Iterator, error)
}

// Iterator yields observations in corpus order. Next returns io.EOF after
// the last observation. Iterators are single-goroutine; open one per
// concurrent consumer.
type Iterator interface {
	Next() (emleak.Observation, error)
	Close() error
}

// Seeker is a Source that can start a pass at any observation index
// without reading the observations before it. Fleet tasks start their
// passes at their first shard through it.
type Seeker interface {
	// IterateFrom starts a fresh pass whose first observation is the
	// start-th of the corpus (io.EOF at once when start ≥ Count).
	IterateFrom(start int) (Iterator, error)
}

// IterateFrom starts a pass over src at observation start: by seeking
// when src is a Seeker, else by discarding the first start observations
// at the first Next. A Next that fails while discarding keeps count of
// what it discarded, so a retried Next goes on from there.
func IterateFrom(src Source, start int) (Iterator, error) {
	if s, ok := src.(Seeker); ok {
		return s.IterateFrom(start)
	}
	it, err := src.Iterate()
	if err != nil || start <= 0 {
		return it, err
	}
	return &skipIterator{Iterator: it, skip: start}, nil
}

// skipIterator discards its first skip observations.
type skipIterator struct {
	Iterator
	skip int
}

func (it *skipIterator) Next() (emleak.Observation, error) {
	for ; it.skip > 0; it.skip-- {
		if _, err := it.Iterator.Next(); err != nil {
			return emleak.Observation{}, err
		}
	}
	return it.Iterator.Next()
}

// SliceSource adapts an in-memory []Observation to the Source interface,
// so existing slice-based campaigns flow through the same streaming
// attack paths.
type SliceSource struct {
	n   int
	obs []emleak.Observation
}

// NewSliceSource wraps obs (degree n) as a Source. The slice is not
// copied.
func NewSliceSource(n int, obs []emleak.Observation) *SliceSource {
	return &SliceSource{n: n, obs: obs}
}

// N implements Source.
func (s *SliceSource) N() int { return s.n }

// Count implements Source.
func (s *SliceSource) Count() int { return len(s.obs) }

// Iterate implements Source.
func (s *SliceSource) Iterate() (Iterator, error) {
	return &sliceIterator{obs: s.obs}, nil
}

// IterateFrom implements Seeker.
func (s *SliceSource) IterateFrom(start int) (Iterator, error) {
	return &sliceIterator{obs: s.obs, pos: max(start, 0)}, nil
}

type sliceIterator struct {
	obs []emleak.Observation
	pos int
}

func (it *sliceIterator) Next() (emleak.Observation, error) {
	if it.pos >= len(it.obs) {
		return emleak.Observation{}, io.EOF
	}
	o := it.obs[it.pos]
	it.pos++
	return o, nil
}

func (it *sliceIterator) Close() error { return nil }

// ReadAll materializes a source into memory — the bridge back to the
// slice-based APIs for corpora known to fit.
func ReadAll(src Source) ([]emleak.Observation, error) {
	it, err := src.Iterate()
	if err != nil {
		return nil, err
	}
	defer it.Close()
	obs := make([]emleak.Observation, 0, src.Count())
	for {
		o, err := it.Next()
		if err == io.EOF {
			return obs, nil
		}
		if err != nil {
			return nil, err
		}
		obs = append(obs, o)
	}
}
