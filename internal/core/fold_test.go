package core

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/tracestore"
)

// The fused-kernel battery: every fused job's fold must leave the bytes
// that the per-trace reference (observe into a zero-state clone, then
// merge) leaves, on State() bytes, for every shard length and for the
// samples that stress floating point.

// awkwardCorpus copies obs and plants −0.0, negatives and huge (but
// fused-range) samples across every sample index. Traces from nonFinite
// on also get ±Inf, NaN and samples beyond maxFusedSample.
func awkwardCorpus(obs []emleak.Observation, nonFinite int) []emleak.Observation {
	out := make([]emleak.Observation, len(obs))
	for i, o := range obs {
		s := append([]float64(nil), o.Trace.Samples...)
		for k := range s {
			switch (i + 3*k) % 37 {
			case 3:
				s[k] = math.Copysign(0, -1)
			case 5:
				s[k] = -1e100
			case 6:
				s[k] = 1e100
			case 7:
				s[k] = -math.Abs(s[k]) - 1
			}
			if i < nonFinite {
				continue
			}
			switch (i + 5*k) % 41 {
			case 8:
				s[k] = math.Inf(1)
			case 9:
				s[k] = math.Inf(-1)
			case 10:
				s[k] = math.NaN()
			case 11:
				s[k] = 1e300
			}
		}
		o.Trace.Samples = s
		out[i] = o
	}
	return out
}

// plantKnown copies obs with every known operand's biased exponent set to
// exp(i) for observation i; a negative exp(i) plants zero (−1), −0.0 (−2)
// or a subnormal (−3) instead. Signs and mantissas are kept otherwise.
func plantKnown(obs []emleak.Observation, exp func(i int) int) []emleak.Observation {
	out := make([]emleak.Observation, len(obs))
	for i, o := range obs {
		cf := append([]fft.Cplx(nil), o.CFFT...)
		for k := range cf {
			cf[k].Re = plantExp(cf[k].Re, exp(i))
			cf[k].Im = plantExp(cf[k].Im, exp(i))
		}
		o.CFFT = cf
		out[i] = o
	}
	return out
}

func plantExp(x fpr.FPR, e int) fpr.FPR {
	const expBits = uint64(0x7ff) << 52
	switch e {
	case -1:
		return 0
	case -2:
		return fpr.FPR(1 << 63)
	case -3:
		return fpr.FPR(uint64(x)&^expBits | 1)
	}
	return fpr.FPR(uint64(x)&^expBits | uint64(e)<<52)
}

// fusedCase builds a fresh zero-state instance of one fused job.
type fusedCase struct {
	name string
	mk   func() job
}

func fusedCases() []fusedCase {
	cases := []fusedCase{
		{"exp", func() job { return newExpJob(1, PartIm) }},
	}
	// Candidate counts around the unroll width of four.
	for _, nc := range []int{1, 3, 6, 33} {
		next := make([]uint64, nc)
		for i := range next {
			next[i] = uint64(i*0x9e3779b9+7) & (1<<10 - 1)
		}
		for _, high := range []bool{false, true} {
			cases = append(cases, fusedCase{fmt.Sprintf("extend/high=%v/cands=%d", high, nc),
				func() job { return newExtendRoundJob(2, PartRe, high, next, 1<<10-1) }})
		}
	}
	for _, np := range []int{1, 3, 7} {
		pairs := make([]mantPair, np)
		for i := range pairs {
			pairs[i] = mantPair{d: uint64(i*0x2545f491+3) & (1<<loBits - 1), c: uint64(1)<<(hiBits-1) | uint64(i*0x9e3779b9)&(1<<(hiBits-1)-1)}
		}
		cases = append(cases, fusedCase{fmt.Sprintf("prune/pairs=%d", np),
			func() job { return pruneJobFromPairs(0, PartIm, pairs) }})
	}
	return cases
}

func jobStateBytes(t *testing.T, j job) string {
	t.Helper()
	b, err := json.Marshal(j.state())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestFusedFoldMatchesObserveMerge(t *testing.T) {
	dev, _, _ := deviceFor(t, 8, 2.0, 71)
	base := collect(t, dev, 2*shardObs, 72)
	corpora := []struct {
		name string
		obs  []emleak.Observation
	}{
		{"finite", awkwardCorpus(base, len(base))},
		{"non-finite first shard", awkwardCorpus(base[:shardObs], 0)},
		{"non-finite", awkwardCorpus(base, 0)},
	}
	// The first corpus needs no fallback, so it must run the kernels.
	for _, o := range corpora[0].obs {
		if !moderate(o.Trace.Samples) {
			t.Fatal("finite corpus holds samples outside the fused range")
		}
	}
	corpora[1].obs = append(corpora[1].obs, corpora[0].obs[shardObs:]...)
	// Planted known operands drive the exponent kernel's column grouping
	// to its edges: a shard whose hypotheses collapse onto the columns of
	// one exponent, a shard with more distinct exponents than one column
	// key holds, and zero, −0.0 and subnormal operands (biased exponent 0),
	// whose base + hyp is negative and reaches weight 64, hwTerms' top
	// entry, at hyp 1022.
	finite := corpora[0].obs
	planted := []struct {
		name string
		obs  []emleak.Observation
		cols func(n int) bool
	}{
		{"one exponent", plantKnown(finite, func(int) int { return 1030 }),
			func(n int) bool { return n < 64 }},
		{"more exponents than a key holds", plantKnown(finite, func(i int) int { return 1000 + 3*(i%(expKeyExps+1)) }),
			func(n int) bool { return n == nExpHyp-1 }},
		{"zero and subnormal", plantKnown(finite, func(i int) int { return []int{-1, -2, -3, 1023 + i%5}[i%4] }),
			func(n int) bool { return n < nExpHyp-1 }},
	}
	for _, p := range planted {
		j := newExpJob(1, PartIm)
		j.fold(p.obs[:shardObs])
		if n := len(j.cols.head); !p.cols(n) {
			t.Fatalf("%s: first shard groups into %d columns", p.name, n)
		}
		corpora = append(corpora, struct {
			name string
			obs  []emleak.Observation
		}{p.name, p.obs})
	}
	for _, c := range fusedCases() {
		for _, corpus := range corpora {
			for n := 1; n <= shardObs; n++ {
				shards := [][]emleak.Observation{corpus.obs[:shardObs], corpus.obs[shardObs : shardObs+n]}
				fused, ref := c.mk(), c.mk()
				for k, shard := range shards {
					// A zero-state job left with one shard is that shard's
					// partial, as the parallel path and the fleet build it.
					partial, refPartial := c.mk(), c.mk()
					partial.(fusedJob).fold(shard)
					for _, o := range shard {
						refPartial.observe(o)
					}
					if jobStateBytes(t, partial) != jobStateBytes(t, refPartial) {
						t.Fatalf("%s, %s, n=%d, shard %d: fused partial differs from the observed clone", c.name, corpus.name, n, k)
					}
					fused.(fusedJob).fold(shard)
					foldByObserve(ref, shard)
					if jobStateBytes(t, fused) != jobStateBytes(t, ref) {
						t.Fatalf("%s, %s, n=%d, shard %d: fused fold differs from observe + merge", c.name, corpus.name, n, k)
					}
				}
			}
		}
	}
}

func TestFusedExpFoldOwnsItsScratch(t *testing.T) {
	// The column grouping scratch is reused from fold to fold, so folding
	// a shard again allocates nothing, and each clone (a parallel tile's
	// partial, a fleet task's partial) grows its own.
	dev, _, _ := deviceFor(t, 8, 2.0, 77)
	shard := collect(t, dev, shardObs, 78)
	j := newExpJob(2, PartRe)
	j.fold(shard)
	if allocs := testing.AllocsPerRun(5, func() { j.fold(shard) }); allocs != 0 {
		t.Fatalf("a warm exponent fold allocates %.0f times", allocs)
	}
	c := j.clone().(*expJob)
	if c.cols != nil {
		t.Fatal("a clone starts with its parent's grouping scratch")
	}
	c.fold(shard)
	cc := c.clone().(*expJob)
	cc.fold(shard)
	if c.cols == j.cols || cc.cols == c.cols || cc.cols == j.cols {
		t.Fatal("a clone shares its parent's grouping scratch")
	}
}

func TestFusedExpHypothesisZeroTakesZeroTimesSample(t *testing.T) {
	// observe never writes hypothesis 0's prediction, so its cell holds
	// Σ0·t: +0 for finite samples and NaN once a sample is infinite.
	dev, _, _ := deviceFor(t, 8, 2.0, 73)
	obs := collect(t, dev, 10, 74)
	for _, inf := range []bool{false, true} {
		shard := awkwardCorpus(obs, len(obs))
		if inf {
			for _, slot := range PartRe.mulSlots() {
				shard[4].Trace.Samples[emleak.SampleIndex(0, slot, int(fpr.OpMulExp))] = math.Inf(-1)
			}
		}
		j := newExpJob(0, PartRe)
		j.fold(shard)
		ref := newExpJob(0, PartRe)
		foldByObserve(ref, shard)
		if jobStateBytes(t, j) != jobStateBytes(t, ref) {
			t.Fatalf("inf=%v: fused exponent fold differs from observe + merge", inf)
		}
	}
}

// jobKinds returns zero-state jobs of every kind: the per-trace sign,
// joint-sign and Welford jobs, and the fused exponent, extend and prune
// jobs.
func jobKinds() []job {
	jobs := []job{
		newSignJob(3, PartIm),
		newJointSignJob(1, fpr.FPR(0x3ff8000000000000), fpr.FPR(0x4008000000000000)),
		&welfordJob{},
	}
	for _, c := range fusedCases()[:4] {
		jobs = append(jobs, c.mk())
	}
	return append(jobs, fusedCases()[len(fusedCases())-1].mk())
}

// parallelMatchesSerial checks that parallelPass at workers 2, 3 and 8
// leaves every job kind on serialPass's State() bytes.
func parallelMatchesSerial(t *testing.T, src Source) {
	t.Helper()
	ref := jobKinds()
	if err := serialPass(src, ref); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		got := jobKinds()
		if err := parallelPass(src, got, w); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if jobStateBytes(t, got[i]) != jobStateBytes(t, ref[i]) {
				t.Fatalf("workers=%d: job %d (%s) differs from the serial pass", w, i, got[i].spec().Kind)
			}
		}
	}
}

func TestRecycledPartialsDoNotLeak(t *testing.T) {
	// The parallel path reuses each merged partial for a later shard of
	// the same pass. A reset that missed any state would leak one shard's
	// sums into another, so every job kind — fused or per-trace — must
	// land on the serial bytes at every worker count, and a reset clone
	// must accumulate a shard exactly like a fresh one.
	dev, _, _ := deviceFor(t, 8, 2.0, 75)
	obs := collect(t, dev, 11*shardObs+5, 76)
	parallelMatchesSerial(t, tracestore.NewSliceSource(8, obs))
	for i, j := range jobKinds() {
		fresh, reused := j.clone(), j.clone()
		accumulateShard(reused, obs[shardObs:2*shardObs])
		reused.reset()
		accumulateShard(fresh, obs[:shardObs])
		accumulateShard(reused, obs[:shardObs])
		if jobStateBytes(t, fresh) != jobStateBytes(t, reused) {
			t.Fatalf("job %d (%s): a reset clone accumulates differently from a fresh one", i, j.spec().Kind)
		}
	}
}

func TestParallelMixedFoldPathsMatchSerial(t *testing.T) {
	// A block's next shard folds in place while a later shard's partial is
	// built and parked, then merged once the in-place fold ends; the main
	// jobs must still take the serial pass's adds. holdInPlaceFolds makes
	// a later partial arrive during an in-place fold on any scheduler.
	holdInPlaceFolds = true
	t.Cleanup(func() { holdInPlaceFolds = false })
	dev, _, _ := deviceFor(t, 8, 2.0, 79)
	parallelMatchesSerial(t, tracestore.NewSliceSource(8, collect(t, dev, 11*shardObs+5, 80)))
}
