package core

// The attack primitives are written as "pass jobs": accumulators that
// consume one observation at a time and report their verdict after a
// full pass over the campaign. The slice-based APIs (AttackValue,
// AttackCoefficient) feed jobs from an in-memory []Observation; the
// streamed path (AttackFFTfFrom) feeds the *same* jobs from a replayable
// on-disk Source, batching every value's job into shared passes so the
// whole-key attack touches the corpus a bounded number of times
// regardless of its size. Every path — slice-fed, streamed serial, and
// the parallel engine at any worker count — accumulates through the same
// canonical sharded reduction (see parallel.go), so their results are
// bit-for-bit equal.
//
// Each job implements mergeJob: clone() returns a zero-state accumulator
// sharing the job's read-only configuration (targets, candidate lists,
// sample offsets), merge() folds a clone's engine sums back in, and
// reset() zeroes a folded clone for reuse. The exponent, extend and prune
// jobs also implement fusedJob: their fold() is the shard-fused kernel,
// which folds a shard straight into the job's sums with no clone, bit for
// bit as observe into a zero-state clone plus merge would (DESIGN.md
// §3.8). The sign, joint-sign and Welford jobs run per-trace observe.

import (
	"math"
	"math/bits"
	"sort"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/ntru"
)

// passJob consumes one observation of a sequential campaign pass.
type passJob interface {
	observe(o emleak.Observation)
}

// feedSlice drives jobs from an in-memory campaign through the canonical
// sharded reduction, so slice-fed results stay bit-identical to the
// streamed and parallel paths. Jobs that cannot merge (none of the attack
// jobs today) fall back to plain sequential accumulation.
func feedSlice(obs []emleak.Observation, jobs ...passJob) {
	mjobs := make([]mergeJob, len(jobs))
	for i, j := range jobs {
		mj, ok := j.(mergeJob)
		if !ok {
			for _, o := range obs {
				for _, j := range jobs {
					j.observe(o)
				}
			}
			return
		}
		mjobs[i] = mj
	}
	for lo := 0; lo < len(obs); lo += shardObs {
		foldShard(mjobs, obs[lo:min(lo+shardObs, len(obs))])
	}
}

// signJob is the two-hypothesis DEMA on the sign-XOR micro-ops of both
// windows touching the secret value (see attackSign).
type signJob struct {
	coeff   int
	part    Part
	engines [2]*cpa.Engine
	h       []float64
}

func newSignJob(coeff int, part Part) *signJob {
	return &signJob{
		coeff:   coeff,
		part:    part,
		engines: [2]*cpa.Engine{cpa.NewEngine(2), cpa.NewEngine(2)},
		h:       make([]float64, 2),
	}
}

func (j *signJob) observe(o emleak.Observation) {
	for w, slot := range j.part.mulSlots() {
		sc := knownFor(slot, o.CFFT[j.coeff]).Sign()
		j.h[0] = float64(sc)
		j.h[1] = float64(sc ^ 1)
		t := o.Trace.Samples[emleak.SampleIndex(j.coeff, slot, int(fpr.OpMulSign))]
		j.engines[w].Update(j.h, t)
	}
}

func (j *signJob) clone() mergeJob { return newSignJob(j.coeff, j.part) }

func (j *signJob) reset() { resetEngines(j.engines[:]) }

// cells feeds the sweep throughput gauge.
func (j *signJob) cells() int { return 2 * 2 }

func (j *signJob) merge(o mergeJob) {
	for w, e := range o.(*signJob).engines {
		j.engines[w].Merge(e)
	}
}

func (j *signJob) result() (sign int, corr float64) {
	var score [2]float64
	for _, e := range j.engines {
		r := e.Corr()
		score[0] += r[0] / 2
		score[1] += r[1] / 2
	}
	if score[1] > score[0] {
		return 1, score[1]
	}
	return 0, score[0]
}

// expJob guesses the 11-bit biased exponent against the exponent-adder
// records of both windows (see attackExponent).
type expJob struct {
	coeff   int
	part    Part
	engines [2]*cpa.Engine
	h       []float64
}

const nExpHyp = 2047 // biased exponents 1..2046 plus index 0 unused

func newExpJob(coeff int, part Part) *expJob {
	return &expJob{
		coeff:   coeff,
		part:    part,
		engines: [2]*cpa.Engine{cpa.NewEngine(nExpHyp), cpa.NewEngine(nExpHyp)},
	}
}

func (j *expJob) observe(o emleak.Observation) {
	if j.h == nil {
		j.h = make([]float64, nExpHyp)
	}
	for w, slot := range j.part.mulSlots() {
		bec := knownFor(slot, o.CFFT[j.coeff]).BiasedExp()
		for hyp := 1; hyp < nExpHyp; hyp++ {
			j.h[hyp] = float64(bits.OnesCount64(uint64(bec + hyp - 1023)))
		}
		t := o.Trace.Samples[emleak.SampleIndex(j.coeff, slot, int(fpr.OpMulExp))]
		j.engines[w].Update(j.h, t)
	}
}

// fold is the fused kernel: per window it gathers the shard's known
// exponents and samples once, then walks the hypotheses four at a time
// over the shard's traces with register accumulators. Hypothesis 0 is
// unused and observe never writes its prediction, so its cells take 0·t:
// +0 on a shard of finite samples, which leaves them as they are.
func (j *expJob) fold(shard []emleak.Observation) {
	var base [2][shardObs]int
	var ts [2][shardObs]float64
	n := len(shard)
	for w, slot := range j.part.mulSlots() {
		for tr, o := range shard {
			base[w][tr] = knownFor(slot, o.CFFT[j.coeff]).BiasedExp() - 1023
			ts[w][tr] = o.Trace.Samples[emleak.SampleIndex(j.coeff, slot, int(fpr.OpMulExp))]
		}
		if !moderate(ts[w][:n]) {
			foldByObserve(j, shard)
			return
		}
	}
	for w, e := range j.engines {
		foldExpWindow(e, base[w][:n], ts[w][:n])
	}
}

// foldExpWindow folds one window's shard into e. base[tr] is the known
// biased exponent minus 1023, so hypothesis hyp predicts
// HW(base[tr] + hyp).
func foldExpWindow(e *cpa.Engine, base []int, ts []float64) {
	ts = ts[:len(base)]
	e.FoldTraces(ts)
	hyp := 1
	for ; hyp+4 <= nExpHyp; hyp += 4 {
		var p0, p1, p2, p3 int
		var s0, s1, s2, s3 float64
		for tr, b := range base {
			x := uint64(b + hyp)
			t := ts[tr]
			h0 := bits.OnesCount64(x)
			h1 := bits.OnesCount64(x + 1)
			h2 := bits.OnesCount64(x + 2)
			h3 := bits.OnesCount64(x + 3)
			p0 += hwTerm(h0)
			p1 += hwTerm(h1)
			p2 += hwTerm(h2)
			p3 += hwTerm(h3)
			s0 += float64(h0) * t
			s1 += float64(h1) * t
			s2 += float64(h2) * t
			s3 += float64(h3) * t
		}
		foldHW(e, hyp, p0, s0)
		foldHW(e, hyp+1, p1, s1)
		foldHW(e, hyp+2, p2, s2)
		foldHW(e, hyp+3, p3, s3)
	}
	for ; hyp < nExpHyp; hyp++ {
		var p int
		var s float64
		for tr, b := range base {
			h := bits.OnesCount64(uint64(b + hyp))
			p += hwTerm(h)
			s += float64(h) * ts[tr]
		}
		foldHW(e, hyp, p, s)
	}
}

func (j *expJob) clone() mergeJob { return newExpJob(j.coeff, j.part) }

func (j *expJob) reset() { resetEngines(j.engines[:]) }

func (j *expJob) cells() int { return 2 * nExpHyp }

func (j *expJob) merge(o mergeJob) {
	for w, e := range o.(*expJob).engines {
		j.engines[w].Merge(e)
	}
}

// result resolves the winner and its degeneracy family for ring degree n
// (the magnitude prior depends on n; see the exponent-tie discussion in
// attackExponent).
func (j *expJob) result(n int) (biasedExp int, corr float64, alts []int) {
	r := make([]float64, nExpHyp)
	for _, e := range j.engines {
		for i, v := range e.Corr() {
			r[i] += v / 2
		}
	}
	best := cpa.TopK(r, 1)[0]
	prior := 1023 + int(math.Round(math.Log2(math.Sqrt(float64(n)/2)*ntru.SigmaFG(n))))
	// The degeneracy family of the winner: hypotheses offset by multiples
	// of 8 (the smallest power of two that can exceed a hashed-message
	// component's exponent spread) whose correlation is statistically
	// indistinguishable from the winner's. Exact ties match to ~1e-15;
	// near-ties (support crossing a carry boundary in a handful of traces)
	// can even beat the truth by noise, so the acceptance band is a small
	// correlation margin. Equal prior distances break toward correlation.
	const tieStep = 8
	const tieMargin = 0.05
	pick, pickDist := best.Index, abs(best.Index-prior)
	family := []int{best.Index}
	for hyp := 1; hyp < nExpHyp; hyp++ {
		if hyp == best.Index || (hyp-best.Index)%tieStep != 0 || best.Corr-r[hyp] > tieMargin {
			continue
		}
		family = append(family, hyp)
		if d := abs(hyp - prior); d < pickDist || (d == pickDist && r[hyp] > r[pick]) {
			pick, pickDist = hyp, d
		}
	}
	alts = make([]int, 0, len(family)-1)
	for _, hyp := range family {
		if hyp != pick {
			alts = append(alts, hyp)
		}
	}
	// Most plausible alternatives first, so the error-correction pass in
	// RecoverKey repairs quickly.
	sort.Slice(alts, func(i, j int) bool {
		return abs(alts[i]-prior) < abs(alts[j]-prior)
	})
	return pick, r[pick], alts
}

// extendTarget is one partial product touching the attacked mantissa
// half: (micro-op, which known half multiplies it, window).
type extendTarget struct {
	op     fpr.Op
	useHi  bool
	window int
}

// extendTargets enumerates the partial products involving the chosen
// secret half (B×D and A×D for the low half; B×C and A×C for the high
// half, in both multiplication windows).
func extendTargets(part Part, high bool) []extendTarget {
	var targets []extendTarget
	for _, w := range part.mulSlots() {
		if high {
			targets = append(targets,
				extendTarget{fpr.OpMulLH, false, w}, extendTarget{fpr.OpMulHH, true, w})
		} else {
			targets = append(targets,
				extendTarget{fpr.OpMulLL, false, w}, extendTarget{fpr.OpMulHL, true, w})
		}
	}
	return targets
}

// extendState runs the extend phase of one mantissa half as a sequence of
// rounds, each one campaign pass: a windowed correlation attack on the
// schoolbook partial products, growing the guessed width from the least
// significant bits and carrying the TopK survivors. The low w bits of a
// product depend only on the low w bits of the secret half, which is what
// makes the incremental search sound; the full-width ranking retains the
// shift-related false positives that the prune phase later removes.
type extendState struct {
	coeff int
	part  Part
	width int
	high  bool
	cfg   Config
	cands []candidate
	low   int
	round *extendRoundJob
}

func newExtendState(coeff int, part Part, width int, high bool, cfg Config) *extendState {
	return &extendState{
		coeff: coeff, part: part, width: width, high: high, cfg: cfg,
		cands: []candidate{{value: 0}},
	}
}

func (s *extendState) done() bool { return s.low >= s.width }

// beginRound expands every candidate by the next window of bits and
// allocates the round's engines. The returned job must see one full
// campaign pass before endRound.
func (s *extendState) beginRound() *extendRoundJob {
	w := s.cfg.Window
	if s.low+w > s.width {
		w = s.width - s.low
	}
	k := uint(s.low + w)
	mask := (uint64(1) << k) - 1
	next := make([]uint64, 0, len(s.cands)<<w)
	seen := make(map[uint64]bool, len(s.cands)<<w)
	for _, c := range s.cands {
		for v := uint64(0); v < 1<<w; v++ {
			nv := c.value | v<<s.low
			if !seen[nv] {
				seen[nv] = true
				next = append(next, nv)
			}
		}
	}
	if s.high && s.low+w == s.width {
		// The high half carries the implicit leading one.
		filtered := next[:0]
		for _, v := range next {
			if v>>(s.width-1) == 1 {
				filtered = append(filtered, v)
			}
		}
		next = filtered
	}
	s.round = newExtendRoundJob(s.coeff, s.part, s.high, next, mask)
	return s.round
}

// endRound ranks the expanded candidates and keeps the TopK survivors.
func (s *extendState) endRound() {
	j := s.round
	score := make([]float64, len(j.next))
	for _, e := range j.engines {
		for i, r := range e.Corr() {
			score[i] += r / float64(len(j.engines))
		}
	}
	top := cpa.TopK(score, s.cfg.TopK)
	s.cands = s.cands[:0]
	for _, g := range top {
		s.cands = append(s.cands, candidate{value: j.next[g.Index], corr: g.Corr})
	}
	s.low += s.cfg.Window
	s.round = nil
}

// extendRoundJob is the per-pass accumulator of one extend round. part
// and high identify which half's targets the round attacks — redundant
// with targets locally, but they let a worker rebuild the identical
// target list from the job's wire description.
type extendRoundJob struct {
	coeff   int
	part    Part
	high    bool
	targets []extendTarget
	next    []uint64
	mask    uint64
	engines []*cpa.Engine
	h       []float64
}

func newExtendRoundJob(coeff int, part Part, high bool, next []uint64, mask uint64) *extendRoundJob {
	targets := extendTargets(part, high)
	engines := make([]*cpa.Engine, len(targets))
	for i := range engines {
		engines[i] = cpa.NewEngine(len(next))
	}
	return &extendRoundJob{
		coeff: coeff, part: part, high: high,
		targets: targets, next: next, mask: mask, engines: engines,
	}
}

func (j *extendRoundJob) observe(o emleak.Observation) {
	if j.h == nil {
		j.h = make([]float64, len(j.next))
	}
	for ti, tg := range j.targets {
		known := knownFor(tg.window, o.CFFT[j.coeff])
		a, b := known.MantissaHalves()
		kn := b
		if tg.useHi {
			kn = a
		}
		for i, v := range j.next {
			j.h[i] = float64(bits.OnesCount64((kn * v) & j.mask))
		}
		j.engines[ti].Update(j.h, o.Trace.Samples[emleak.SampleIndex(j.coeff, tg.window, int(tg.op))])
	}
}

// fold is the fused kernel: per target it gathers the shard's known halves
// and samples once, then walks the candidates four at a time over the
// shard's traces with register accumulators.
func (j *extendRoundJob) fold(shard []emleak.Observation) {
	var kns [4][shardObs]uint64
	var ts [4][shardObs]float64
	n := len(shard)
	for ti, tg := range j.targets {
		for tr, o := range shard {
			a, b := knownFor(tg.window, o.CFFT[j.coeff]).MantissaHalves()
			kns[ti][tr] = b
			if tg.useHi {
				kns[ti][tr] = a
			}
			ts[ti][tr] = o.Trace.Samples[emleak.SampleIndex(j.coeff, tg.window, int(tg.op))]
		}
		if !moderate(ts[ti][:n]) {
			foldByObserve(j, shard)
			return
		}
	}
	for ti, e := range j.engines {
		foldExtendTarget(e, kns[ti][:n], ts[ti][:n], j.next, j.mask)
	}
}

// foldExtendTarget folds one target's shard into e: candidate v predicts
// HW((kns[tr]·v) & mask).
func foldExtendTarget(e *cpa.Engine, kns []uint64, ts []float64, next []uint64, mask uint64) {
	ts = ts[:len(kns)]
	e.FoldTraces(ts)
	i := 0
	for ; i+4 <= len(next); i += 4 {
		v0, v1, v2, v3 := next[i], next[i+1], next[i+2], next[i+3]
		var p0, p1, p2, p3 int
		var s0, s1, s2, s3 float64
		for tr, kn := range kns {
			t := ts[tr]
			h0 := bits.OnesCount64((kn * v0) & mask)
			h1 := bits.OnesCount64((kn * v1) & mask)
			h2 := bits.OnesCount64((kn * v2) & mask)
			h3 := bits.OnesCount64((kn * v3) & mask)
			p0 += hwTerm(h0)
			p1 += hwTerm(h1)
			p2 += hwTerm(h2)
			p3 += hwTerm(h3)
			s0 += float64(h0) * t
			s1 += float64(h1) * t
			s2 += float64(h2) * t
			s3 += float64(h3) * t
		}
		foldHW(e, i, p0, s0)
		foldHW(e, i+1, p1, s1)
		foldHW(e, i+2, p2, s2)
		foldHW(e, i+3, p3, s3)
	}
	for ; i < len(next); i++ {
		v := next[i]
		var p int
		var s float64
		for tr, kn := range kns {
			h := bits.OnesCount64((kn * v) & mask)
			p += hwTerm(h)
			s += float64(h) * ts[tr]
		}
		foldHW(e, i, p, s)
	}
}

// clone shares the round's candidate expansion (targets, next, mask —
// all read-only during the pass) and gets fresh engines.
func (j *extendRoundJob) clone() mergeJob {
	engines := make([]*cpa.Engine, len(j.engines))
	for i := range engines {
		engines[i] = cpa.NewEngine(len(j.next))
	}
	return j.withEngines(engines)
}

// withEngines is a copy of the job carrying the given engines.
func (j *extendRoundJob) withEngines(engines []*cpa.Engine) *extendRoundJob {
	return &extendRoundJob{
		coeff: j.coeff, part: j.part, high: j.high,
		targets: j.targets, next: j.next, mask: j.mask, engines: engines,
	}
}

func (j *extendRoundJob) merge(o mergeJob) {
	for i, e := range o.(*extendRoundJob).engines {
		j.engines[i].Merge(e)
	}
}

func (j *extendRoundJob) reset() { resetEngines(j.engines) }

func (j *extendRoundJob) cells() int { return len(j.targets) * len(j.next) }

// pruneJob is the prune phase: every surviving (D, C) pair is scored
// against the intermediate additions mid = lh+hl, sum1 = mid+(ll>>25) and
// sum2 = hh+(sum1>>25) in both windows, whose values the adversary can
// predict exactly from the known operand halves. Addition mixes the
// unrelated operand into each candidate's prediction, so the
// multiplicative shift ties break and only the true pair correlates at
// every addition. Engine wi·3+k holds addition k (mid, sum1, sum2) of
// window wi.
type pruneJob struct {
	coeff   int
	part    Part
	pairs   []mantPair
	engines []*cpa.Engine
	h       [][]float64
}

type mantPair struct{ d, c uint64 }

// pruneOps are the additions the prune phase correlates, in engine order.
var pruneOps = [3]fpr.Op{fpr.OpMulMid, fpr.OpMulSum1, fpr.OpMulSum2}

func newPruneJob(coeff int, part Part, dCands, cCands []candidate) *pruneJob {
	pairs := make([]mantPair, 0, len(dCands)*len(cCands))
	for _, dc := range dCands {
		for _, cc := range cCands {
			pairs = append(pairs, mantPair{dc.value, cc.value})
		}
	}
	return pruneJobFromPairs(coeff, part, pairs)
}

// pruneJobFromPairs builds the prune accumulator over an explicit pair
// list — the constructor a worker uses when the pairs arrive by wire.
func pruneJobFromPairs(coeff int, part Part, pairs []mantPair) *pruneJob {
	engines := make([]*cpa.Engine, 2*len(pruneOps))
	for i := range engines {
		engines[i] = cpa.NewEngine(len(pairs))
	}
	return &pruneJob{coeff: coeff, part: part, pairs: pairs, engines: engines}
}

// pruneHW returns the Hamming weights of the three additions for known
// halves (a, b) and candidate pair p.
func pruneHW(a, b uint64, p mantPair) (mid, sum1, sum2 int) {
	m := b*p.c + a*p.d
	s1 := m + ((b * p.d) >> loBits)
	s2 := a*p.c + (s1 >> loBits)
	return bits.OnesCount64(m), bits.OnesCount64(s1), bits.OnesCount64(s2)
}

func (j *pruneJob) observe(o emleak.Observation) {
	if j.h == nil {
		j.h = make([][]float64, len(j.engines))
		for i := range j.h {
			j.h[i] = make([]float64, len(j.pairs))
		}
	}
	for wi, slot := range j.part.mulSlots() {
		a, b := knownFor(slot, o.CFFT[j.coeff]).MantissaHalves()
		h := j.h[wi*len(pruneOps):]
		for i, p := range j.pairs {
			mid, sum1, sum2 := pruneHW(a, b, p)
			h[0][i] = float64(mid)
			h[1][i] = float64(sum1)
			h[2][i] = float64(sum2)
		}
		for oi, op := range pruneOps {
			j.engines[wi*len(pruneOps)+oi].Update(h[oi],
				o.Trace.Samples[emleak.SampleIndex(j.coeff, slot, int(op))])
		}
	}
}

// fold is the fused kernel: per window it gathers the shard's known
// halves and the three additions' samples once, then walks the pairs
// over the shard's traces, computing each pair's product chain once for
// all three additions.
func (j *pruneJob) fold(shard []emleak.Observation) {
	var as, bs [2][shardObs]uint64
	var ts [2][len(pruneOps)][shardObs]float64
	n := len(shard)
	for wi, slot := range j.part.mulSlots() {
		for tr, o := range shard {
			as[wi][tr], bs[wi][tr] = knownFor(slot, o.CFFT[j.coeff]).MantissaHalves()
			for oi, op := range pruneOps {
				ts[wi][oi][tr] = o.Trace.Samples[emleak.SampleIndex(j.coeff, slot, int(op))]
			}
		}
		for oi := range pruneOps {
			if !moderate(ts[wi][oi][:n]) {
				foldByObserve(j, shard)
				return
			}
		}
	}
	for wi := range as {
		foldPruneWindow(j.engines[wi*len(pruneOps):], as[wi][:n], bs[wi][:n], &ts[wi], j.pairs)
	}
}

// foldPruneWindow folds one window's shard into its three engines (mid,
// sum1, sum2); ts[k] holds addition k's samples.
func foldPruneWindow(eng []*cpa.Engine, as, bs []uint64, ts *[len(pruneOps)][shardObs]float64, pairs []mantPair) {
	n := len(as)
	bs = bs[:n]
	tm, t1, t2 := ts[0][:n], ts[1][:n], ts[2][:n]
	eng[0].FoldTraces(tm)
	eng[1].FoldTraces(t1)
	eng[2].FoldTraces(t2)
	for i, p := range pairs {
		var pm, p1, p2 int
		var sm, s1, s2 float64
		for tr, a := range as {
			mid, sum1, sum2 := pruneHW(a, bs[tr], p)
			pm += hwTerm(mid)
			p1 += hwTerm(sum1)
			p2 += hwTerm(sum2)
			sm += float64(mid) * tm[tr]
			s1 += float64(sum1) * t1[tr]
			s2 += float64(sum2) * t2[tr]
		}
		foldHW(eng[0], i, pm, sm)
		foldHW(eng[1], i, p1, s1)
		foldHW(eng[2], i, p2, s2)
	}
}

// clone shares the pair list and gets fresh engines.
func (j *pruneJob) clone() mergeJob {
	return pruneJobFromPairs(j.coeff, j.part, j.pairs)
}

func (j *pruneJob) merge(o mergeJob) {
	for i, e := range o.(*pruneJob).engines {
		j.engines[i].Merge(e)
	}
}

func (j *pruneJob) reset() { resetEngines(j.engines) }

func (j *pruneJob) cells() int { return len(j.engines) * len(j.pairs) }

func (j *pruneJob) result() (d, c uint64, corr, gap float64) {
	// Combined score: the mean correlation across additions and windows.
	score := make([]float64, len(j.pairs))
	for _, e := range j.engines {
		for i, r := range e.Corr() {
			score[i] += r / float64(len(j.engines))
		}
	}
	ranked := cpa.Rank(score)
	best := ranked[0]
	gap = 1.0
	if len(ranked) > 1 {
		gap = best.Corr - ranked[1].Corr
	}
	return j.pairs[best.Index].d, j.pairs[best.Index].c, best.Corr, gap
}

// jointSignJob resolves the two sign bits of a complex coefficient by
// replaying the complex multiplication under all four sign hypotheses
// (magnitudes already recovered) and correlating the predicted Hamming
// weights of every sign-dependent micro-op — the four sign-XOR slots plus
// the subtraction and addition that combine the four real products. The
// combine stage depends on both signs through operand alignment and
// cancellation patterns, so it discriminates even when the known operand
// signs never vary.
type jointSignJob struct {
	coeff         int
	cands         [4]fft.Cplx
	sampleOffsets []int
	eng           *cpa.MatrixEngine
	rec           fpr.SliceRecorder
	hs            []float64
	t             []float64
}

func newJointSignJob(coeff int, absRe, absIm fpr.FPR) *jointSignJob {
	j := &jointSignJob{coeff: coeff}
	// Candidate secrets under the four hypotheses.
	for i := 0; i < 4; i++ {
		re := absRe
		im := absIm
		if i&1 == 1 {
			re = fpr.Neg(re)
		}
		if i&2 == 2 {
			im = fpr.Neg(im)
		}
		j.cands[i] = fft.Cplx{Re: re, Im: im}
	}
	// Sign-dependent samples within the coefficient window: the four
	// OpMulSign slots and the 12 samples of the two combine additions.
	for m := 0; m < emleak.MulsPerCoeff; m++ {
		j.sampleOffsets = append(j.sampleOffsets, m*emleak.OpsPerMul+int(fpr.OpMulSign))
	}
	for s := emleak.MulsPerCoeff * emleak.OpsPerMul; s < emleak.SamplesPerCoeff; s++ {
		j.sampleOffsets = append(j.sampleOffsets, s)
	}
	j.eng = cpa.NewMatrixEngine(4, len(j.sampleOffsets))
	j.hs = make([]float64, 4*len(j.sampleOffsets))
	j.t = make([]float64, len(j.sampleOffsets))
	return j
}

func (j *jointSignJob) observe(o emleak.Observation) {
	base := j.coeff * emleak.SamplesPerCoeff
	for i, cand := range j.cands {
		j.rec.Reset()
		fft.MulTraced(o.CFFT[j.coeff], cand, &j.rec)
		if j.rec.Len() != emleak.SamplesPerCoeff {
			// Degenerate replay (zero operand); predict flat.
			for k := range j.sampleOffsets {
				j.hs[i*len(j.sampleOffsets)+k] = 0
			}
			continue
		}
		for k, off := range j.sampleOffsets {
			j.hs[i*len(j.sampleOffsets)+k] = float64(bits.OnesCount64(j.rec.Values[off]))
		}
	}
	for k, off := range j.sampleOffsets {
		j.t[k] = o.Trace.Samples[base+off]
	}
	j.eng.Update(j.hs, j.t)
}

// clone shares the candidate table and sample offsets and gets a fresh
// matrix engine plus its own replay recorder and scratch.
func (j *jointSignJob) clone() mergeJob {
	return &jointSignJob{
		coeff:         j.coeff,
		cands:         j.cands,
		sampleOffsets: j.sampleOffsets,
		eng:           cpa.NewMatrixEngine(4, len(j.sampleOffsets)),
		hs:            make([]float64, 4*len(j.sampleOffsets)),
		t:             make([]float64, len(j.sampleOffsets)),
	}
}

func (j *jointSignJob) merge(o mergeJob) {
	j.eng.Merge(o.(*jointSignJob).eng)
}

func (j *jointSignJob) reset() { j.eng.Reset() }

func (j *jointSignJob) cells() int { return 4 * len(j.sampleOffsets) }

func (j *jointSignJob) result() (sRe, sIm int, corr float64) {
	// Score: mean correlation across sign-dependent samples.
	score := j.eng.MeanScore()
	best, bestScore := 0, math.Inf(-1)
	for i := 0; i < 4; i++ {
		if score[i] > bestScore {
			best, bestScore = i, score[i]
		}
	}
	return best & 1, best >> 1, bestScore
}

// maxFusedSample bounds the samples a fused kernel takes. Up to it every
// cell of a shard partial is finite (|h·t| ≤ 2^406, t² ≤ 2^800), so the
// kernel's adds give the same bits in whatever operand order the compiler
// emits them. A NaN-plus-NaN add returns one operand's payload, so with
// non-finite partials the bits would hang on the compiled order; shards
// holding NaN, ±Inf or larger samples take the per-trace reference path.
const maxFusedSample = 0x1p400

// moderate reports whether every sample is within ±maxFusedSample (NaN is
// not).
func moderate(ts []float64) bool {
	for _, t := range ts {
		if !(t >= -maxFusedSample && t <= maxFusedSample) {
			return false
		}
	}
	return true
}

// foldByObserve is the per-trace reference fold: observe the shard into a
// zero-state clone and merge it.
func foldByObserve(j mergeJob, shard []emleak.Observation) {
	c := j.clone()
	for _, o := range shard {
		c.observe(o)
	}
	j.merge(c)
}

// The fused kernels keep a hypothesis's Σh and Σh² in one integer
// register: Σh in the low hwShift bits, Σh² above them. A shard holds at
// most 64 traces of Hamming weight at most 64, so Σh ≤ 4096 never carries
// into Σh².
const hwShift = 16

// hwTerm is one prediction's contribution to the packed register.
func hwTerm(h int) int { return h + h*h<<hwShift }

// foldHW folds one hypothesis's shard partial from its packed register
// and its h·t sum.
func foldHW(e *cpa.Engine, hyp, packed int, sumHT float64) {
	e.FoldHyp(hyp, packed&(1<<hwShift-1), packed>>hwShift, sumHT)
}

// resetEngines zeroes a folded clone's engines for reuse.
func resetEngines(engines []*cpa.Engine) {
	for _, e := range engines {
		e.Reset()
	}
}
