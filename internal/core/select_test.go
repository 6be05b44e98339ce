package core

import (
	"math"
	"sort"
	"testing"

	"falcondown/internal/cpa"
	"falcondown/internal/tracestore"
)

// sortSliceRank is cpa.Rank as it was written with sort.Slice, the
// reference that the attack's winners are pinned to.
func sortSliceRank(corr []float64) []cpa.Guess {
	g := make([]cpa.Guess, len(corr))
	for i, c := range corr {
		g[i] = cpa.Guess{Index: i, Corr: c}
	}
	sort.Slice(g, func(a, b int) bool { return g[a].Corr > g[b].Corr })
	return g
}

func sameGuess(a, b cpa.Guess) bool {
	return a.Index == b.Index && math.Float64bits(a.Corr) == math.Float64bits(b.Corr)
}

// extendAll runs the extend phase of every value of a degree-n key (n/2
// complex coefficients) over src, all values sharing each round's pass
// as runMantissa does, and hands each round's job to round before its
// pass.
func extendAll(t *testing.T, src Source, n int, cfg Config, round func(s *extendState, j *extendRoundJob)) (los, his []*extendState) {
	t.Helper()
	cfg = cfg.withDefaults()
	var states []*extendState
	for idx := 0; idx < n; idx++ {
		coeff, part := idx/2, Part(idx%2)
		los = append(los, newExtendState(coeff, part, loBits, false, cfg))
		his = append(his, newExtendState(coeff, part, hiBits, true, cfg))
		states = append(states, los[idx], his[idx])
	}
	for {
		var jobs []job
		var active []*extendState
		for _, s := range states {
			if !s.done() {
				j := s.beginRound()
				round(s, j)
				jobs = append(jobs, j)
				active = append(active, s)
			}
		}
		if len(jobs) == 0 {
			return los, his
		}
		if err := serialPass(src, jobs); err != nil {
			t.Fatal(err)
		}
		for _, s := range active {
			s.endRound()
		}
	}
}

func TestBeginRoundChildrenDistinct(t *testing.T) {
	// beginRound keeps every child of every candidate: its parents are
	// distinct values below 2^low, so the children are distinct values
	// below 2^(low+w), at any beam width and window.
	dev, _, _ := deviceFor(t, 4, 2.0, 81)
	src := tracestore.NewSliceSource(4, collect(t, dev, 300, 82))
	for _, cfg := range []Config{{TopK: 1}, {TopK: 8}, {TopK: 64, Window: 3}, {TopK: 5, Window: 7}} {
		rounds := 0
		extendAll(t, src, 4, cfg, func(s *extendState, j *extendRoundJob) {
			rounds++
			w := min(s.cfg.Window, s.width-s.low)
			seen := make(map[uint64]bool, len(j.next))
			for _, v := range j.next {
				if seen[v] || v>>(s.low+w) != 0 {
					t.Fatalf("TopK %d window %d, low %d: child %#x repeated or wider than %d bits", s.cfg.TopK, s.cfg.Window, s.low, v, s.low+w)
				}
				seen[v] = true
			}
		})
		if rounds == 0 {
			t.Fatal("no extend round ran")
		}
	}
}

func TestWinnersMatchSortSliceRank(t *testing.T) {
	// The exponent winner and the prune winner and runner-up come out of
	// cpa.TopK; they must be the sort.Slice rank's, on the score vectors a
	// real attack builds. Exponent scores tie exactly at the top most of
	// the time, so both of TopK's paths run.
	const n = 8
	dev, _, _ := deviceFor(t, n, 2.0, 83)
	src := tracestore.NewSliceSource(n, collect(t, dev, 400, 84))
	var exps []job
	for idx := 0; idx < n; idx++ {
		exps = append(exps, newExpJob(idx/2, Part(idx%2)))
	}
	if err := serialPass(src, exps); err != nil {
		t.Fatal(err)
	}
	ties := 0
	for idx, j := range exps {
		r := j.(*expJob).scores()
		want := sortSliceRank(r)
		if got := cpa.TopK(r, 1); !sameGuess(got[0], want[0]) {
			t.Fatalf("value %d: exponent winner %+v, sort.Slice rank %+v", idx, got[0], want[0])
		}
		if want[0].Corr == want[1].Corr {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no exponent score vector tied at the top")
	}

	los, his := extendAll(t, src, n, Config{}, func(*extendState, *extendRoundJob) {})
	var prunes []job
	for idx := range los {
		prunes = append(prunes, newPruneJob(idx/2, Part(idx%2), los[idx].cands, his[idx].cands))
	}
	if err := serialPass(src, prunes); err != nil {
		t.Fatal(err)
	}
	for idx, pj := range prunes {
		p := pj.(*pruneJob)
		score := p.scores()
		want := sortSliceRank(score)
		got := cpa.TopK(score, 2)
		if !sameGuess(got[0], want[0]) || !sameGuess(got[1], want[1]) {
			t.Fatalf("value %d: prune top two %+v, sort.Slice rank %+v", idx, got, want[:2])
		}
		d, c, corr, gap := p.result()
		wp := p.pairs[want[0].Index]
		if d != wp.d || c != wp.c || corr != want[0].Corr || gap != want[0].Corr-want[1].Corr {
			t.Fatalf("value %d: prune result (%#x, %#x, %v, %v) is not the sort.Slice winner's", idx, d, c, corr, gap)
		}
	}
}
