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
// Every job implements job: clone() returns a zero-state accumulator
// sharing the job's read-only configuration (targets, candidate lists,
// sample offsets), merge() folds a clone's engine sums back in, reset()
// zeroes a folded clone for reuse, and spec/state/fromState carry it across
// the wire (wire.go). The exponent, extend and prune jobs also implement
// fusedJob: their fold() is the shard-fused kernel, which folds a shard
// straight into the job's sums with no clone, bit for bit as observe into
// a zero-state clone plus merge would (DESIGN.md §3.8). The sign,
// joint-sign and Welford jobs run per-trace observe.

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/ntru"
	"falcondown/internal/tracestore"
)

// job is one accumulator of a campaign pass. observe consumes one
// observation; clone yields a zero-state accumulator sharing the job's
// read-only configuration; merge folds a clone's sums in and must be a
// plain field-wise combination, so folding shard partials in shard order
// reproduces the serial pass bit-for-bit; reset returns a clone to its
// zero state so it can carry another shard. cells counts the accumulator
// cells one observation updates (the sweep throughput gauge). spec, state
// and fromState are the wire form (wire.go): fromState decodes a partial
// into a mergeable clone, validating its shapes against the receiver.
type job interface {
	observe(o emleak.Observation)
	clone() job
	merge(job)
	reset()
	cells() int
	spec() JobSpec
	state() JobState
	fromState(st JobState) (job, error)
}

// feedSlice drives jobs over an in-memory campaign through serialPass, so
// slice-fed results stay bit-identical to the streamed and parallel paths.
// A SliceSource cannot fail, so there is no error to return.
func feedSlice(obs []emleak.Observation, jobs ...job) {
	_ = serialPass(sliceSource(obs), jobs)
}

// sliceSource views an in-memory campaign as a Source.
func sliceSource(obs []emleak.Observation) Source {
	return tracestore.NewSliceSource(2*len(obs[0].CFFT), obs)
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

func (j *signJob) clone() job { return newSignJob(j.coeff, j.part) }

func (j *signJob) reset() { resetEngines(j.engines[:]) }

// cells feeds the sweep throughput gauge.
func (j *signJob) cells() int { return 2 * 2 }

func (j *signJob) merge(o job) {
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
	// cols is fold's grouping scratch, made on the first fold. A clone
	// starts without one, so concurrent partials never share it.
	cols *expColumns
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
// exponents and samples once, groups the hypotheses by weight column, and
// accumulates each distinct column once over the shard's traces with
// register accumulators. Hypothesis 0 is unused and observe never writes
// its prediction, so its cells take 0·t: +0 on a shard of finite
// samples, which leaves them as they are.
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
	if j.cols == nil {
		j.cols = new(expColumns)
	}
	for w, e := range j.engines {
		j.cols.group(base[w][:n])
		j.cols.fold(e, base[w][:n], ts[w][:n])
	}
}

// Hypothesis hyp predicts HW(b + hyp) on a trace whose known biased
// exponent is b + 1023, so two hypotheses whose weights agree on each of
// a shard's distinct known exponents predict the same sequence on every
// trace: the same weight column. A shard of 64 traces holds only a few
// distinct exponents, so its 2046 hypotheses share a few hundred columns.
// A column is keyed by its weights, expKeyBits each (a weight is at most
// 64), so up to expKeyExps distinct exponents fit one uint64; a shard
// with more gives every hypothesis its own column.
const (
	expKeyBits  = 7
	expKeyExps  = 64 / expKeyBits
	expSlotBits = 12 // 4096 hash slots: at most half full
	expSlots    = 1 << expSlotBits
)

// expColumns groups one shard window's hypotheses into weight columns.
// Column c holds the hypotheses head[c], next[head[c]], … up to the
// unused hypothesis 0, and any of them stands for the column. It is
// rebuilt for every window, so reuse carries no state between shards;
// head and key grow to the most columns a window has needed.
type expColumns struct {
	head []uint16
	key  []uint64
	next [nExpHyp]uint16
	slot [expSlots]uint16 // hash slot → column+1; 0 is free
}

// group builds the columns of a window whose traces carry the given
// known exponents (biased exponent − 1023).
func (g *expColumns) group(base []int) {
	var exps [expKeyExps]int
	k := 0
	for _, b := range base {
		if slices.Contains(exps[:k], b) {
			continue
		}
		if k == expKeyExps {
			k = -1
			break
		}
		exps[k] = b
		k++
	}
	g.head = g.head[:0]
	if k < 0 {
		for hyp := 1; hyp < nExpHyp; hyp++ {
			g.head = append(g.head, uint16(hyp))
			g.next[hyp] = 0
		}
		return
	}
	clear(g.slot[:])
	g.key = g.key[:0]
	for hyp := 1; hyp < nExpHyp; hyp++ {
		var key uint64
		for d, b := range exps[:k] {
			key |= uint64(bits.OnesCount64(uint64(b+hyp))) << (d * expKeyBits)
		}
		s := (key * 0x9e3779b97f4a7c15) >> (64 - expSlotBits)
		for {
			c := int(g.slot[s]) - 1
			if c < 0 {
				c = len(g.head)
				g.head = append(g.head, 0)
				g.key = append(g.key, key)
				g.slot[s] = uint16(len(g.head))
			} else if g.key[c] != key {
				s = (s + 1) & (expSlots - 1)
				continue
			}
			g.next[hyp] = g.head[c]
			g.head[c] = uint16(hyp)
			break
		}
	}
}

// fold folds the window's shard into e: each column's partial is
// accumulated once, four columns at a time, and folded into every
// hypothesis of the column. base[tr] is the known biased exponent minus
// 1023, so a column whose hypothesis is hyp predicts HW(base[tr] + hyp).
func (g *expColumns) fold(e *cpa.Engine, base []int, ts []float64) {
	ts = ts[:len(base)]
	e.FoldTraces(ts)
	c := 0
	for ; c+4 <= len(g.head); c += 4 {
		r0, r1, r2, r3 := int(g.head[c]), int(g.head[c+1]), int(g.head[c+2]), int(g.head[c+3])
		var p0, p1, p2, p3 int
		var s0, s1, s2, s3 float64
		for tr, b := range base {
			t := ts[tr]
			h0 := bits.OnesCount64(uint64(b + r0))
			h1 := bits.OnesCount64(uint64(b + r1))
			h2 := bits.OnesCount64(uint64(b + r2))
			h3 := bits.OnesCount64(uint64(b + r3))
			p0 += hwTerm(h0)
			p1 += hwTerm(h1)
			p2 += hwTerm(h2)
			p3 += hwTerm(h3)
			s0 += float64(h0) * t
			s1 += float64(h1) * t
			s2 += float64(h2) * t
			s3 += float64(h3) * t
		}
		g.foldColumn(e, c, p0, s0)
		g.foldColumn(e, c+1, p1, s1)
		g.foldColumn(e, c+2, p2, s2)
		g.foldColumn(e, c+3, p3, s3)
	}
	for ; c < len(g.head); c++ {
		r := int(g.head[c])
		var p int
		var s float64
		for tr, b := range base {
			h := bits.OnesCount64(uint64(b + r))
			p += hwTerm(h)
			s += float64(h) * ts[tr]
		}
		g.foldColumn(e, c, p, s)
	}
}

// foldColumn folds column c's partial into each of its hypotheses.
func (g *expColumns) foldColumn(e *cpa.Engine, c, packed int, sumHT float64) {
	for hyp := g.head[c]; hyp != 0; hyp = g.next[hyp] {
		foldHW(e, int(hyp), packed, sumHT)
	}
}

func (j *expJob) clone() job { return newExpJob(j.coeff, j.part) }

func (j *expJob) reset() { resetEngines(j.engines[:]) }

func (j *expJob) cells() int { return 2 * nExpHyp }

func (j *expJob) merge(o job) {
	for w, e := range o.(*expJob).engines {
		j.engines[w].Merge(e)
	}
}

// result resolves the winner and its degeneracy family for ring degree n
// (the magnitude prior depends on n; see the exponent-tie discussion in
// attackExponent).
func (j *expJob) result(n int) (biasedExp int, corr float64, alts []int) {
	r := j.scores()
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

// scores is each exponent's mean correlation over both windows.
func (j *expJob) scores() []float64 {
	r := make([]float64, nExpHyp)
	for _, e := range j.engines {
		for i, v := range e.Corr() {
			r[i] += v / 2
		}
	}
	return r
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
	// The parents are distinct values below 2^low (each round keeps
	// distinct children), so every child is distinct too.
	next := make([]uint64, 0, len(s.cands)<<w)
	for _, c := range s.cands {
		for v := uint64(0); v < 1<<w; v++ {
			next = append(next, c.value|v<<s.low)
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
func (j *extendRoundJob) clone() job {
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

func (j *extendRoundJob) merge(o job) {
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
func (j *pruneJob) clone() job {
	return pruneJobFromPairs(j.coeff, j.part, j.pairs)
}

func (j *pruneJob) merge(o job) {
	for i, e := range o.(*pruneJob).engines {
		j.engines[i].Merge(e)
	}
}

func (j *pruneJob) reset() { resetEngines(j.engines) }

func (j *pruneJob) cells() int { return len(j.engines) * len(j.pairs) }

func (j *pruneJob) result() (d, c uint64, corr, gap float64) {
	ranked := cpa.TopK(j.scores(), 2)
	best := ranked[0]
	gap = 1.0
	if len(ranked) > 1 {
		gap = best.Corr - ranked[1].Corr
	}
	return j.pairs[best.Index].d, j.pairs[best.Index].c, best.Corr, gap
}

// scores is each pair's combined score: the mean correlation across
// additions and windows.
func (j *pruneJob) scores() []float64 {
	score := make([]float64, len(j.pairs))
	for _, e := range j.engines {
		for i, r := range e.Corr() {
			score[i] += r / float64(len(j.engines))
		}
	}
	return score
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
func (j *jointSignJob) clone() job {
	return &jointSignJob{
		coeff:         j.coeff,
		cands:         j.cands,
		sampleOffsets: j.sampleOffsets,
		eng:           cpa.NewMatrixEngine(4, len(j.sampleOffsets)),
		hs:            make([]float64, 4*len(j.sampleOffsets)),
		t:             make([]float64, len(j.sampleOffsets)),
	}
}

func (j *jointSignJob) merge(o job) {
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
func foldByObserve(j job, shard []emleak.Observation) {
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

// hwTerms[h] is a prediction h's contribution h + h²<<hwShift to the
// packed register. A weight is at most 64, so the masked index is h.
var hwTerms = func() (t [128]int) {
	for h := range t {
		t[h] = h + h*h<<hwShift
	}
	return t
}()

// hwTerm is one prediction's contribution to the packed register.
func hwTerm(h int) int { return hwTerms[h&127] }

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
