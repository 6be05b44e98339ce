package tracestore

import (
	"sort"

	"falcondown/internal/emleak"
)

// MaskedSource wraps a Source, skipping a pinned set of observation
// indices on every pass — the bridge between the quality gate's suspect
// list and the attack: supervised acquisition writes every observation
// (so resume offsets stay stable) and the attack masks the flagged ones
// out. Like the lenient reader's chunk quarantine, the skip set is fixed
// at construction, so every Iterate sweeps the identical subset in the
// identical order.
type MaskedSource struct {
	inner Source
	skip  []int // the masked indices, increasing
	count int
}

// NewMaskedSource wraps src, hiding the observations at the given corpus
// indices. Out-of-range and duplicate indices are ignored.
func NewMaskedSource(src Source, skip []int) *MaskedSource {
	m := &MaskedSource{inner: src}
	sorted := append([]int(nil), skip...)
	sort.Ints(sorted)
	for _, i := range sorted {
		if i >= 0 && i < src.Count() && (len(m.skip) == 0 || m.skip[len(m.skip)-1] != i) {
			m.skip = append(m.skip, i)
		}
	}
	m.count = src.Count() - len(m.skip)
	return m
}

// N implements Source.
func (m *MaskedSource) N() int { return m.inner.N() }

// Count implements Source (observations after masking).
func (m *MaskedSource) Count() int { return m.count }

// Skipped reports how many observations the mask hides.
func (m *MaskedSource) Skipped() int { return len(m.skip) }

// Iterate implements Source.
func (m *MaskedSource) Iterate() (Iterator, error) { return m.IterateFrom(0) }

// IterateFrom implements Seeker: the start-th unmasked observation is
// the inner source's start-th plus the masked indices at or before it.
func (m *MaskedSource) IterateFrom(start int) (Iterator, error) {
	pos, k := max(start, 0), 0
	for ; k < len(m.skip) && m.skip[k] <= pos; k++ {
		pos++
	}
	it, err := IterateFrom(m.inner, pos)
	if err != nil {
		return nil, err
	}
	return &maskedIterator{inner: it, skip: m.skip[k:], pos: pos}, nil
}

type maskedIterator struct {
	inner Iterator
	skip  []int // the masked indices from pos on, increasing
	pos   int
}

func (it *maskedIterator) Next() (emleak.Observation, error) {
	for {
		o, err := it.inner.Next()
		if err != nil {
			return o, err
		}
		i := it.pos
		it.pos++
		if len(it.skip) == 0 || it.skip[0] != i {
			return o, nil
		}
		it.skip = it.skip[1:]
	}
}

func (it *maskedIterator) Close() error { return it.inner.Close() }

var _ Source = (*MaskedSource)(nil)
