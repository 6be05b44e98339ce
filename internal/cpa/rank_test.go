package cpa

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortSliceRank is Rank as it was written with sort.Slice: the reference
// permutation that Rank and TopK must reproduce, equal and unordered
// correlations included.
func sortSliceRank(corr []float64) []Guess {
	g := make([]Guess, len(corr))
	for i, c := range corr {
		g[i] = Guess{Index: i, Corr: c}
	}
	sort.Slice(g, func(a, b int) bool { return g[a].Corr > g[b].Corr })
	return g
}

// sameGuesses reports whether a and b hold the same indices with the same
// correlation bits, in the same order.
func sameGuesses(a, b []Guess) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || math.Float64bits(a[i].Corr) != math.Float64bits(b[i].Corr) {
			return false
		}
	}
	return true
}

// tieHeavy draws n correlations from a pool of a few values, so most of
// them tie exactly; the pool holds ±0 and, when odd is set, NaN and ±Inf.
func tieHeavy(r *rand.Rand, n int, odd bool) []float64 {
	pool := []float64{0.25, -0.125, 0.5, 0, math.Copysign(0, -1), 0.75, -1, r.Float64()}
	if odd {
		pool = append(pool, math.NaN(), math.Inf(1), math.Inf(-1))
	}
	pool = pool[:1+r.Intn(len(pool))]
	c := make([]float64, n)
	for i := range c {
		c[i] = pool[r.Intn(len(pool))]
	}
	return c
}

func TestRankMatchesSortSlice(t *testing.T) {
	// Rank's slices.SortFunc must put equal and unordered correlations
	// exactly where sort.Slice did: attack results hang on the order of
	// exact ties.
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(3000)
		if trial%4 == 0 {
			n = 1 + r.Intn(40) // insertion-sort sizes
		}
		corr := tieHeavy(r, n, trial%3 == 0)
		if got, want := Rank(corr), sortSliceRank(corr); !sameGuesses(got, want) {
			t.Fatalf("trial %d (n=%d): Rank differs from the sort.Slice rank", trial, n)
		}
	}
}

func TestTopKIsRankPrefix(t *testing.T) {
	// TopK must return exactly the reference rank's first k guesses:
	// distinct scores through the selection, ties at, above and below the
	// k boundary, ±0, NaN and ±Inf through whichever path they take.
	r := rand.New(rand.NewSource(23))
	var lengths []int
	for n := 1; n <= 80; n++ {
		lengths = append(lengths, n)
	}
	for n := 81; n < 5000; n += 193 + r.Intn(120) {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 2047, 4096, 5000)
	check := func(corr []float64, k int, what string) {
		t.Helper()
		want := sortSliceRank(corr)
		want = want[:min(k, len(want))]
		if got := TopK(corr, k); !sameGuesses(got, want) {
			t.Fatalf("%s (n=%d, k=%d): TopK = %v, want %v", what, len(corr), k, got, want)
		}
	}
	for _, n := range lengths {
		for _, k := range []int{1, 2, 8, 64, n} {
			corr := make([]float64, n)
			for i := range corr {
				corr[i] = 2*r.Float64() - 1
			}
			check(corr, k, "distinct")
			ranked := sortSliceRank(corr)
			// Plant an exact tie between ranks b and b+1 (0-based) for b
			// just above, at and just below the boundary at k.
			for _, b := range []int{k - 2, k - 1, k, k + 1} {
				if b < 0 || b+1 >= n {
					continue
				}
				tied := append([]float64(nil), corr...)
				tied[ranked[b+1].Index] = tied[ranked[b].Index]
				check(tied, k, "tie below rank")
				// The same tie as +0 and −0.
				tied[ranked[b].Index], tied[ranked[b+1].Index] = 0, math.Copysign(0, -1)
				check(tied, k, "signed zeros")
			}
			odd := append([]float64(nil), corr...)
			odd[r.Intn(n)] = math.Inf(1)
			odd[r.Intn(n)] = math.Inf(-1)
			check(odd, k, "infinities")
			odd[r.Intn(n)] = math.NaN()
			check(odd, k, "NaN")
			check(tieHeavy(r, n, true), k, "tie-heavy")
		}
	}
}
