// Package cpa implements the differential electromagnetic analysis engine
// of the paper: a streaming Pearson-correlation distinguisher (Brier et
// al.'s CPA) between hypothesis-dependent leakage predictions and measured
// trace samples, plus the Fisher-z statistical significance machinery used
// for the paper's 99.99 % confidence intervals.
//
// All statistics are accumulated in one pass (sums, squares and
// cross-products), so campaigns never need to be held in memory.
package cpa

import (
	"math"
	"sort"
)

// Engine accumulates the Pearson correlation of each hypothesis against a
// single trace sample, one trace at a time (equation (1) of the paper with
// T = 1, evaluated at the chosen leakiest sample).
type Engine struct {
	d           int // number of traces
	sumT, sumT2 float64
	sumH, sumH2 []float64
	sumHT       []float64
}

// NewEngine returns an engine for nHyp hypotheses.
func NewEngine(nHyp int) *Engine {
	return &Engine{
		sumH:  make([]float64, nHyp),
		sumH2: make([]float64, nHyp),
		sumHT: make([]float64, nHyp),
	}
}

// NHyp returns the hypothesis count.
func (e *Engine) NHyp() int { return len(e.sumH) }

// Traces returns the number of accumulated traces.
func (e *Engine) Traces() int { return e.d }

// Update folds in one trace: h[i] is hypothesis i's predicted leakage for
// this trace's known input, t the measured sample.
func (e *Engine) Update(h []float64, t float64) {
	e.d++
	e.sumT += t
	e.sumT2 += t * t
	for i, hv := range h {
		e.sumH[i] += hv
		e.sumH2[i] += hv * hv
		e.sumHT[i] += hv * t
	}
}

// Merge folds another engine's accumulators into e, as if e had also
// observed every trace o observed. Because the engine state is plain sums,
// merging partials in a FIXED order is deterministic: the same partition
// of a campaign merged in the same order yields the same bits on every
// run, regardless of how many goroutines computed the partials. The
// parallel attack engine relies on this — partial engines are always
// combined in shard-index order, never arrival order. Both engines must
// have the same hypothesis count. o is not modified.
func (e *Engine) Merge(o *Engine) {
	if len(e.sumH) != len(o.sumH) {
		panic("cpa: Merge of engines with different hypothesis counts")
	}
	e.d += o.d
	e.sumT += o.sumT
	e.sumT2 += o.sumT2
	for i := range e.sumH {
		e.sumH[i] += o.sumH[i]
		e.sumH2[i] += o.sumH2[i]
		e.sumHT[i] += o.sumHT[i]
	}
}

// Shard partials. The attack's fused kernels (internal/core) fold one
// shard of at most 64 traces straight into an engine, without building a
// zero-state partial engine and merging it. FoldTraces and FoldHyp are
// the two halves of that fold, and together they execute the very adds
// Merge would apply to such a partial: the partial's cells are sums that
// start at +0.0 and take their terms in trace order, and each is added
// to the engine's cell once. Sums of integer predictions (Σh, Σh²) are
// exact in any order while they stay below 2^53, so the kernels keep
// them as integers. The partial's cells must be finite: two NaNs meeting
// in one add keep the payload of whichever operand the compiled code
// puts first, so a partial that can be NaN goes through Update and Merge
// instead. DESIGN.md §3.8 states the contract.

// FoldTraces folds the trace side of one shard partial: the shard's
// samples in corpus order.
func (e *Engine) FoldTraces(ts []float64) {
	var sT, sT2 float64
	for _, t := range ts {
		sT += t
		sT2 += t * t
	}
	e.d += len(ts)
	e.sumT += sT
	e.sumT2 += sT2
}

// FoldHyp folds hypothesis i's shard partial: sumH and sumH2 are the
// exact sums of its integer predictions and of their squares, and sumHT
// is the float64 sum of h·t, started at +0.0 and taken in trace order.
func (e *Engine) FoldHyp(i, sumH, sumH2 int, sumHT float64) {
	e.sumH[i] += float64(sumH)
	e.sumH2[i] += float64(sumH2)
	e.sumHT[i] += sumHT
}

// Reset returns the engine to its zero state, keeping its buffers, so a
// folded partial can be reused for the next shard.
func (e *Engine) Reset() {
	e.d, e.sumT, e.sumT2 = 0, 0, 0
	clear(e.sumH)
	clear(e.sumH2)
	clear(e.sumHT)
}

// Corr returns the Pearson correlation per hypothesis. Hypotheses with
// zero prediction variance (constant predictions) report zero.
func (e *Engine) Corr() []float64 {
	out := make([]float64, len(e.sumH))
	d := float64(e.d)
	if e.d < 2 {
		return out
	}
	varT := e.sumT2 - e.sumT*e.sumT/d
	if varT <= 0 {
		return out
	}
	for i := range out {
		varH := e.sumH2[i] - e.sumH[i]*e.sumH[i]/d
		if varH <= 0 {
			continue
		}
		cov := e.sumHT[i] - e.sumH[i]*e.sumT/d
		out[i] = cov / math.Sqrt(varH*varT)
	}
	return out
}

// Guess is a ranked hypothesis.
type Guess struct {
	Index int
	Corr  float64
}

// Rank returns hypotheses sorted by decreasing correlation. CPA against a
// positively-coupled channel puts the correct guess at a *positive*
// correlation maximum (as the paper notes for the symmetric sign-bit
// leak), so ranking uses the signed value.
func Rank(corr []float64) []Guess {
	g := make([]Guess, len(corr))
	for i, c := range corr {
		g[i] = Guess{Index: i, Corr: c}
	}
	sort.Slice(g, func(a, b int) bool { return g[a].Corr > g[b].Corr })
	return g
}

// TopK returns the k best guesses (fewer if there are fewer hypotheses).
func TopK(corr []float64, k int) []Guess {
	r := Rank(corr)
	if len(r) > k {
		r = r[:k]
	}
	return r
}

// Threshold returns the two-sided significance threshold on |r| at the
// given confidence (e.g. 0.9999 for the paper's 99.99 %) for d traces,
// via the Fisher z-transform: r* = tanh(z_{α/2}/√(d−3)).
func Threshold(confidence float64, d int) float64 {
	if d <= 3 {
		return 1
	}
	alpha := 1 - confidence
	z := math.Sqrt2 * erfInv(1-alpha)
	return math.Tanh(z / math.Sqrt(float64(d-3)))
}

// Threshold9999 is the paper's 99.99 % confidence threshold.
func Threshold9999(d int) float64 { return Threshold(0.9999, d) }

// erfInv computes the inverse error function (Winitzki's approximation
// refined by two Newton steps, accurate to ~1e-12 in the attack's range).
func erfInv(x float64) float64 {
	if x <= -1 || x >= 1 {
		if x == 1 {
			return math.Inf(1)
		}
		if x == -1 {
			return math.Inf(-1)
		}
		return math.NaN()
	}
	const a = 0.147
	ln := math.Log(1 - x*x)
	t1 := 2/(math.Pi*a) + ln/2
	y := math.Sqrt(math.Sqrt(t1*t1-ln/a) - t1)
	if x < 0 {
		y = -y
	}
	// Newton refinement on erf(y) = x.
	for i := 0; i < 3; i++ {
		err := math.Erf(y) - x
		y -= err * math.Sqrt(math.Pi) / 2 * math.Exp(y*y)
	}
	return y
}

// MultiEngine accumulates correlations for every hypothesis at every
// sample of a window — the engine behind the paper's correlation-vs-time
// plots (Fig. 4 a–d).
type MultiEngine struct {
	d     int
	nHyp  int
	nSamp int
	sumT  []float64
	sumT2 []float64
	sumH  []float64
	sumH2 []float64
	sumHT []float64 // nHyp × nSamp
}

// NewMultiEngine returns a windowed engine.
func NewMultiEngine(nHyp, nSamples int) *MultiEngine {
	return &MultiEngine{
		nHyp:  nHyp,
		nSamp: nSamples,
		sumT:  make([]float64, nSamples),
		sumT2: make([]float64, nSamples),
		sumH:  make([]float64, nHyp),
		sumH2: make([]float64, nHyp),
		sumHT: make([]float64, nHyp*nSamples),
	}
}

// Update folds in one trace window.
func (e *MultiEngine) Update(h []float64, t []float64) {
	e.d++
	for j, tv := range t {
		e.sumT[j] += tv
		e.sumT2[j] += tv * tv
	}
	for i, hv := range h {
		e.sumH[i] += hv
		e.sumH2[i] += hv * hv
		row := e.sumHT[i*e.nSamp : (i+1)*e.nSamp]
		for j, tv := range t {
			row[j] += hv * tv
		}
	}
}

// Merge folds another windowed engine's accumulators into e (see
// Engine.Merge for the determinism contract). Shapes must match.
func (e *MultiEngine) Merge(o *MultiEngine) {
	if e.nHyp != o.nHyp || e.nSamp != o.nSamp {
		panic("cpa: Merge of MultiEngines with different shapes")
	}
	e.d += o.d
	for j := range e.sumT {
		e.sumT[j] += o.sumT[j]
		e.sumT2[j] += o.sumT2[j]
	}
	for i := range e.sumH {
		e.sumH[i] += o.sumH[i]
		e.sumH2[i] += o.sumH2[i]
	}
	for i := range e.sumHT {
		e.sumHT[i] += o.sumHT[i]
	}
}

// Corr returns the correlation matrix [hypothesis][sample].
func (e *MultiEngine) Corr() [][]float64 {
	out := make([][]float64, e.nHyp)
	d := float64(e.d)
	for i := range out {
		out[i] = make([]float64, e.nSamp)
		if e.d < 2 {
			continue
		}
		varH := e.sumH2[i] - e.sumH[i]*e.sumH[i]/d
		if varH <= 0 {
			continue
		}
		row := e.sumHT[i*e.nSamp : (i+1)*e.nSamp]
		for j := 0; j < e.nSamp; j++ {
			varT := e.sumT2[j] - e.sumT[j]*e.sumT[j]/d
			if varT <= 0 {
				continue
			}
			cov := row[j] - e.sumH[i]*e.sumT[j]/d
			out[i][j] = cov / math.Sqrt(varH*varT)
		}
	}
	return out
}

// Traces returns the number of accumulated traces.
func (e *MultiEngine) Traces() int { return e.d }

// PeakSample returns the sample index with the largest |r| for hypothesis
// hyp — the "leakiest time sample" of the paper's Fig. 4 (e–h).
func (e *MultiEngine) PeakSample(hyp int) int {
	corr := e.Corr()[hyp]
	best, bestAbs := 0, -1.0
	for j, c := range corr {
		if a := math.Abs(c); a > bestAbs {
			best, bestAbs = j, a
		}
	}
	return best
}

// MatrixEngine correlates per-sample predictions: unlike MultiEngine,
// every hypothesis supplies a distinct prediction for every sample (used
// by the joint sign attack, where each hypothesis predicts the whole
// micro-op window).
type MatrixEngine struct {
	d     int
	nHyp  int
	nSamp int
	sumT  []float64
	sumT2 []float64
	sumH  []float64 // nHyp × nSamp
	sumH2 []float64
	sumHT []float64
}

// NewMatrixEngine returns an engine for nHyp hypotheses over nSamples
// samples with per-sample predictions.
func NewMatrixEngine(nHyp, nSamples int) *MatrixEngine {
	return &MatrixEngine{
		nHyp:  nHyp,
		nSamp: nSamples,
		sumT:  make([]float64, nSamples),
		sumT2: make([]float64, nSamples),
		sumH:  make([]float64, nHyp*nSamples),
		sumH2: make([]float64, nHyp*nSamples),
		sumHT: make([]float64, nHyp*nSamples),
	}
}

// Update folds in one trace: h is the flattened nHyp×nSamples prediction
// matrix, t the measured window.
func (e *MatrixEngine) Update(h []float64, t []float64) {
	e.d++
	for j, tv := range t {
		e.sumT[j] += tv
		e.sumT2[j] += tv * tv
	}
	for i := 0; i < e.nHyp; i++ {
		row := i * e.nSamp
		for j, tv := range t {
			hv := h[row+j]
			e.sumH[row+j] += hv
			e.sumH2[row+j] += hv * hv
			e.sumHT[row+j] += hv * tv
		}
	}
}

// Merge folds another per-sample-prediction engine's accumulators into e
// (see Engine.Merge for the determinism contract). Shapes must match.
func (e *MatrixEngine) Merge(o *MatrixEngine) {
	if e.nHyp != o.nHyp || e.nSamp != o.nSamp {
		panic("cpa: Merge of MatrixEngines with different shapes")
	}
	e.d += o.d
	for j := range e.sumT {
		e.sumT[j] += o.sumT[j]
		e.sumT2[j] += o.sumT2[j]
	}
	for i := range e.sumH {
		e.sumH[i] += o.sumH[i]
		e.sumH2[i] += o.sumH2[i]
		e.sumHT[i] += o.sumHT[i]
	}
}

// Reset returns the engine to its zero state, keeping its buffers.
func (e *MatrixEngine) Reset() {
	e.d = 0
	clear(e.sumT)
	clear(e.sumT2)
	clear(e.sumH)
	clear(e.sumH2)
	clear(e.sumHT)
}

// Corr returns the correlation matrix [hypothesis][sample].
func (e *MatrixEngine) Corr() [][]float64 {
	out := make([][]float64, e.nHyp)
	d := float64(e.d)
	for i := range out {
		out[i] = make([]float64, e.nSamp)
		if e.d < 2 {
			continue
		}
		row := i * e.nSamp
		for j := 0; j < e.nSamp; j++ {
			varH := e.sumH2[row+j] - e.sumH[row+j]*e.sumH[row+j]/d
			varT := e.sumT2[j] - e.sumT[j]*e.sumT[j]/d
			if varH <= 0 || varT <= 0 {
				continue
			}
			cov := e.sumHT[row+j] - e.sumH[row+j]*e.sumT[j]/d
			out[i][j] = cov / math.Sqrt(varH*varT)
		}
	}
	return out
}

// MeanScore returns each hypothesis's mean correlation across samples.
func (e *MatrixEngine) MeanScore() []float64 {
	cm := e.Corr()
	out := make([]float64, e.nHyp)
	for i, row := range cm {
		var s float64
		for _, r := range row {
			s += r
		}
		out[i] = s / float64(e.nSamp)
	}
	return out
}
