package cpa

import (
	"math"
	"math/rand"
	"testing"
)

// The Merge property tests feed integer-valued data (Hamming-weight
// leakage predictions and noiseless traces are small integers), for which
// float64 addition is exact and therefore associative: splitting an
// update sequence at ANY point and merging the partials must reproduce
// the unsplit engine bit-for-bit. With real (noisy, non-integer) traces
// only the fixed-reduction-order determinism holds, which the
// differential suite in internal/core proves end to end.

// intSeries generates d traces of integer-valued predictions (one per
// hypothesis) and an integer-valued sample.
func intSeries(r *rand.Rand, nHyp, d int) (h [][]float64, t []float64) {
	h = make([][]float64, d)
	t = make([]float64, d)
	for i := range h {
		h[i] = make([]float64, nHyp)
		for j := range h[i] {
			h[i][j] = float64(r.Intn(65)) // HW of a 64-bit value
		}
		t[i] = float64(r.Intn(57)) // sample window HW
	}
	return h, t
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEngineMergeEqualsUnsplitUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const nHyp, d = 7, 200
	for trial := 0; trial < 50; trial++ {
		h, tr := intSeries(r, nHyp, d)
		full := NewEngine(nHyp)
		for i := 0; i < d; i++ {
			full.Update(h[i], tr[i])
		}
		k := r.Intn(d + 1) // randomized split point, including 0 and d
		a, b := NewEngine(nHyp), NewEngine(nHyp)
		for i := 0; i < k; i++ {
			a.Update(h[i], tr[i])
		}
		for i := k; i < d; i++ {
			b.Update(h[i], tr[i])
		}
		a.Merge(b)
		if a.Traces() != full.Traces() {
			t.Fatalf("trial %d split %d: merged %d traces, want %d", trial, k, a.Traces(), full.Traces())
		}
		if !sameBits(a.Corr(), full.Corr()) {
			t.Fatalf("trial %d split %d: merged correlations differ from unsplit update", trial, k)
		}
	}
}

func TestEngineMergeTreeAssociativity(t *testing.T) {
	// Associativity over the reduction tree: (a·b)·c and a·(b·c) must
	// agree with each other and with the unsplit engine on integer data.
	r := rand.New(rand.NewSource(42))
	const nHyp, d = 5, 300
	h, tr := intSeries(r, nHyp, d)
	full := NewEngine(nHyp)
	for i := 0; i < d; i++ {
		full.Update(h[i], tr[i])
	}
	for trial := 0; trial < 25; trial++ {
		k1 := r.Intn(d + 1)
		k2 := k1 + r.Intn(d-k1+1)
		build := func(lo, hi int) *Engine {
			e := NewEngine(nHyp)
			for i := lo; i < hi; i++ {
				e.Update(h[i], tr[i])
			}
			return e
		}
		left := build(0, k1)
		left.Merge(build(k1, k2))
		left.Merge(build(k2, d))
		rightTail := build(k1, k2)
		rightTail.Merge(build(k2, d))
		right := build(0, k1)
		right.Merge(rightTail)
		if !sameBits(left.Corr(), right.Corr()) || !sameBits(left.Corr(), full.Corr()) {
			t.Fatalf("splits (%d,%d): tree shapes disagree", k1, k2)
		}
	}
}

func TestEngineMergeEdgeCases(t *testing.T) {
	h1 := []float64{3, 7}
	h2 := []float64{5, 1}
	cases := []struct {
		name string
		a, b int // how many of the two traces go to each side
	}{
		{"empty+empty", 0, 0},
		{"empty+one", 0, 1},
		{"one+empty", 1, 0},
		{"one+one", 1, 1},
		{"empty+two", 0, 2},
		{"two+empty", 2, 0},
	}
	feed := func(e *Engine, from, to int) {
		if from <= 0 && to >= 1 {
			e.Update(h1, 4)
		}
		if from <= 1 && to >= 2 {
			e.Update(h2, 9)
		}
	}
	for _, tc := range cases {
		total := tc.a + tc.b
		full := NewEngine(2)
		feed(full, 0, total)
		a, b := NewEngine(2), NewEngine(2)
		feed(a, 0, tc.a)
		feed(b, tc.a, total)
		a.Merge(b)
		if a.Traces() != total {
			t.Fatalf("%s: merged %d traces, want %d", tc.name, a.Traces(), total)
		}
		if !sameBits(a.Corr(), full.Corr()) {
			t.Fatalf("%s: merged engine differs from direct updates", tc.name)
		}
		// Below two traces every correlation must report zero.
		if total < 2 {
			for i, c := range a.Corr() {
				if c != 0 {
					t.Fatalf("%s: hypothesis %d reports %v with %d traces", tc.name, i, c, total)
				}
			}
		}
	}
}

func TestEngineMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging engines of different hypothesis counts did not panic")
		}
	}()
	NewEngine(2).Merge(NewEngine(3))
}

func TestMatrixEngineMergeEqualsUnsplitUpdate(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	const nHyp, nSamp, d = 4, 5, 120
	h := make([][]float64, d)
	tr := make([][]float64, d)
	for i := range h {
		h[i] = make([]float64, nHyp*nSamp)
		tr[i] = make([]float64, nSamp)
		for j := range h[i] {
			h[i][j] = float64(r.Intn(65))
		}
		for j := range tr[i] {
			tr[i][j] = float64(r.Intn(57))
		}
	}
	full := NewMatrixEngine(nHyp, nSamp)
	for i := 0; i < d; i++ {
		full.Update(h[i], tr[i])
	}
	for trial := 0; trial < 20; trial++ {
		k := r.Intn(d + 1)
		a, b := NewMatrixEngine(nHyp, nSamp), NewMatrixEngine(nHyp, nSamp)
		for i := 0; i < k; i++ {
			a.Update(h[i], tr[i])
		}
		for i := k; i < d; i++ {
			b.Update(h[i], tr[i])
		}
		a.Merge(b)
		fs, as := full.MeanScore(), a.MeanScore()
		if !sameBits(fs, as) {
			t.Fatalf("split %d: merged MatrixEngine differs from unsplit update", k)
		}
	}
}

func TestRunningStatsMerge(t *testing.T) {
	// Chan's combination is deterministic but not bit-identical to the
	// sequential Welford fold, so: edge cases exact, bulk statistics close,
	// and repeated merges of the same partials identical.
	var empty RunningStats
	var one RunningStats
	one.Add(7)
	s := empty
	s.Merge(one)
	if s.N() != 1 || s.Mean() != 7 || s.Var() != 0 {
		t.Fatalf("empty.Merge(one) = n=%d mean=%v var=%v", s.N(), s.Mean(), s.Var())
	}
	s = one
	s.Merge(empty)
	if s.N() != 1 || s.Mean() != 7 {
		t.Fatalf("one.Merge(empty) = n=%d mean=%v", s.N(), s.Mean())
	}

	r := rand.New(rand.NewSource(45))
	vals := make([]float64, 500)
	for i := range vals {
		vals[i] = r.NormFloat64()*3 + 10
	}
	var seq RunningStats
	for _, v := range vals {
		seq.Add(v)
	}
	for trial := 0; trial < 20; trial++ {
		k := r.Intn(len(vals) + 1)
		var a, b RunningStats
		for _, v := range vals[:k] {
			a.Add(v)
		}
		for _, v := range vals[k:] {
			b.Add(v)
		}
		m1, m2 := a, a
		m1.Merge(b)
		m2.Merge(b)
		if m1 != m2 {
			t.Fatalf("split %d: identical merges produced different bits", k)
		}
		if m1.N() != seq.N() {
			t.Fatalf("split %d: merged n=%d want %d", k, m1.N(), seq.N())
		}
		if math.Abs(m1.Mean()-seq.Mean()) > 1e-9 || math.Abs(m1.Var()-seq.Var()) > 1e-9 {
			t.Fatalf("split %d: merged stats mean=%v var=%v drift from sequential mean=%v var=%v",
				k, m1.Mean(), m1.Var(), seq.Mean(), seq.Var())
		}
	}
}
