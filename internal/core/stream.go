package core

import (
	"errors"
	"io"
	"time"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/fpr"
	"falcondown/internal/tracestore"
)

// Source is the attack's streamed view of a campaign: a replayable,
// sequentially-iterable corpus (an alias of tracestore.Source, so disk
// corpora, slices and future backends all plug in). The whole-key attack
// makes a bounded number of passes over it — one per extend round plus a
// handful for exponents, prune, signs and retries — so peak memory never
// scales with the number of traces.
type Source = tracestore.Source

// sweepBackoff is the bounded retry schedule for transient iterator
// errors (tracestore.ErrTransient); a variable so tests can tighten it.
var sweepBackoff = []time.Duration{1 * time.Millisecond, 5 * time.Millisecond, 25 * time.Millisecond}

// sweep feeds every job one sequential pass over the corpus. A Next that
// fails with tracestore.ErrTransient is retried with bounded backoff —
// an attack hours into a campaign should survive an I/O hiccup — on the
// contract that a transient failure has not consumed an observation.
func sweep(src Source, jobs []passJob) error {
	it, err := src.Iterate()
	if err != nil {
		return err
	}
	defer it.Close()
	attempts := 0
	for {
		o, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if errors.Is(err, tracestore.ErrTransient) && attempts < len(sweepBackoff) {
				time.Sleep(sweepBackoff[attempts])
				attempts++
				continue
			}
			return err
		}
		attempts = 0
		for _, j := range jobs {
			j.observe(o)
		}
	}
}

// mantItem names one value (index 2·coeff + part) and the beam
// configuration for its mantissa attack.
type mantItem struct {
	idx int
	cfg Config
}

// mantOut is the prune verdict of one value's mantissa attack.
type mantOut struct {
	d, c      uint64
	corr, gap float64
}

// runMantissa runs the extend rounds and the prune phase of all listed
// values against shared corpus passes: every pass feeds every value's
// round job, so the pass count is bounded by the round count (≤7 with the
// default 5-bit window), not by the number of values.
func runMantissa(src Source, items []mantItem, workers int) ([]mantOut, error) {
	los := make([]*extendState, len(items))
	his := make([]*extendState, len(items))
	states := make([]*extendState, 0, 2*len(items))
	for i, it := range items {
		coeff, part := it.idx/2, Part(it.idx%2)
		los[i] = newExtendState(coeff, part, loBits, false, it.cfg)
		his[i] = newExtendState(coeff, part, hiBits, true, it.cfg)
		states = append(states, los[i], his[i])
	}
	for {
		var jobs []passJob
		var active []*extendState
		for _, s := range states {
			if !s.done() {
				jobs = append(jobs, s.beginRound())
				active = append(active, s)
			}
		}
		if len(jobs) == 0 {
			break
		}
		if err := runPass(src, jobs, workers); err != nil {
			return nil, err
		}
		for _, s := range active {
			s.endRound()
		}
	}
	pjobs := make([]*pruneJob, len(items))
	jobs := make([]passJob, len(items))
	for i, it := range items {
		pjobs[i] = newPruneJob(it.idx/2, Part(it.idx%2), los[i].cands, his[i].cands)
		jobs[i] = pjobs[i]
	}
	if err := runPass(src, jobs, workers); err != nil {
		return nil, err
	}
	out := make([]mantOut, len(items))
	for i, pj := range pjobs {
		out[i].d, out[i].c, out[i].corr, out[i].gap = pj.result()
	}
	return out, nil
}

// AttackFFTf recovers the full FFT(f) vector from an in-memory campaign —
// a thin wrapper over the streamed attack.
func AttackFFTf(obs []emleak.Observation, cfg Config) ([]fft.Cplx, []ValueResult, error) {
	if len(obs) == 0 {
		return nil, nil, errNoTraces
	}
	return AttackFFTfFrom(tracestore.NewSliceSource(2*len(obs[0].CFFT), obs), cfg)
}

// AttackFFTfFrom recovers the full FFT(f) vector (all real and imaginary
// parts) from a streamed campaign. All values advance through the attack
// phases together — exponents, extend rounds, prune, joint signs — with
// each phase one shared pass over the corpus. After the first pass,
// values whose prune correlation falls far below the campaign's median (a
// reliable signature of the extend phase having dropped the true prefix)
// are re-attacked with a much larger candidate beam.
func AttackFFTfFrom(src Source, cfg Config) ([]fft.Cplx, []ValueResult, error) {
	return AttackFFTfResumable(src, cfg, nil)
}

// AttackFFTfDistributed is AttackFFTfResumable with every campaign pass
// executed through dist; see RecoverKeyDistributed for the contract.
func AttackFFTfDistributed(src Source, cfg Config, store CheckpointStore, dist Distributor) ([]fft.Cplx, []ValueResult, error) {
	return AttackFFTfResumable(WithDistributor(src, dist), cfg, store)
}

// AttackFFTfResumable is AttackFFTfFrom with checkpointed recovery: after
// each completed phase the attack state is serialized through store, and
// a rerun against the same campaign and configuration resumes from the
// last completed phase instead of re-sweeping the corpus. A nil store
// disables checkpointing. The checkpointed and uncheckpointed attacks
// produce bit-identical results (the phases are deterministic given their
// inputs).
func AttackFFTfResumable(src Source, cfg Config, store CheckpointStore) ([]fft.Cplx, []ValueResult, error) {
	cfg = cfg.withDefaults()
	if src == nil || src.Count() == 0 {
		return nil, nil, errNoTraces
	}
	workers := effectiveWorkers(cfg.Workers)
	if cfg.Robust.Enabled() {
		// The preprocessing plan is a pure function of (corpus, config) —
		// never of the worker count — so a resumed attack rebuilds the
		// identical transformed source; the checkpoint's Count binds the
		// post-trim trace count.
		rsrc, err := prepareRobust(src, cfg.Robust, workers)
		if err != nil {
			return nil, nil, err
		}
		if rsrc.Count() == 0 {
			return nil, nil, errNoTraces
		}
		src = rsrc
	}
	a := &attackRun{
		src:     src,
		cfg:     cfg,
		store:   store,
		workers: workers,
		n:       src.N(),
		count:   src.Count(),
	}
	a.half = a.n / 2
	a.nVals = 2 * a.half

	done := 0
	if store != nil {
		ck, err := store.Load()
		if err != nil {
			return nil, nil, err
		}
		if ck != nil {
			if err := ck.matches(a.n, a.count, cfg); err != nil {
				return nil, nil, err
			}
			if done, err = a.restore(ck); err != nil {
				return nil, nil, err
			}
		}
	}

	steps := []struct {
		stage string
		run   func() error
	}{
		{StageExponents, a.stageExponents},
		{StageMantissa, a.stageMantissa},
		{StageEscalation, a.stageEscalation},
		{StageSigns, a.stageSigns},
		{StageStragglers, a.stageStragglers},
	}
	for _, st := range steps[done:] {
		sp := stageSpan(st.stage)
		if err := st.run(); err != nil {
			return nil, nil, err
		}
		sp.End()
		if err := a.save(st.stage); err != nil {
			return nil, nil, err
		}
	}
	return a.out, a.results, nil
}

// attackRun is the staged whole-key attack: the per-phase working state
// plus the checkpoint plumbing that persists it between phases.
type attackRun struct {
	src     Source
	cfg     Config
	store   CheckpointStore
	workers int

	n, half, count, nVals int

	mags    []magnitude
	out     []fft.Cplx
	results []ValueResult
}

// restore loads checkpointed state and returns how many phases completed.
func (a *attackRun) restore(ck *Checkpoint) (int, error) {
	rank, err := stageRank(ck.Stage)
	if err != nil {
		return 0, err
	}
	if rank >= 1 {
		a.mags = make([]magnitude, len(ck.Mags))
		for i, m := range ck.Mags {
			a.mags[i] = restoreMag(m)
		}
	}
	if rank >= 4 {
		a.results = make([]ValueResult, len(ck.Results))
		for i, r := range ck.Results {
			a.results[i] = restoreValue(r)
		}
		// out is fully determined by the per-value results.
		a.out = make([]fft.Cplx, a.half)
		for k := 0; k < a.half; k++ {
			a.out[k] = fft.Cplx{Re: a.results[2*k].Value, Im: a.results[2*k+1].Value}
		}
	}
	return rank, nil
}

// save checkpoints the state after the named phase completed.
func (a *attackRun) save(stage string) error {
	if a.store == nil {
		return nil
	}
	// The sidecar must be byte-identical regardless of worker topology
	// (the differential suite compares them), so Workers is zeroed on top
	// of its json:"-" exclusion.
	cfg := a.cfg
	cfg.Workers = 0
	ck := &Checkpoint{
		Format: checkpointFormat,
		N:      a.n,
		Count:  a.count,
		Config: cfg,
		Stage:  stage,
	}
	ck.Mags = make([]MagCheckpoint, len(a.mags))
	for i, m := range a.mags {
		ck.Mags[i] = checkpointMag(m)
	}
	if a.results != nil {
		ck.Results = make([]ValueCheckpoint, len(a.results))
		for i, r := range a.results {
			ck.Results[i] = checkpointValue(r)
		}
	}
	return a.store.Save(ck)
}

// stageExponents runs the exponent pass for every value.
func (a *attackRun) stageExponents() error {
	expJobs := make([]*expJob, a.nVals)
	jobs := make([]passJob, a.nVals)
	for v := range expJobs {
		expJobs[v] = newExpJob(v/2, Part(v%2))
		jobs[v] = expJobs[v]
	}
	if err := runPass(a.src, jobs, a.workers); err != nil {
		return err
	}
	a.mags = make([]magnitude, a.nVals)
	for v := range a.mags {
		be, corr, alts := expJobs[v].result(a.n)
		a.mags[v] = magnitude{biasedExp: be, expAlts: alts, expCorr: corr}
	}
	return nil
}

// stageMantissa runs extend + prune for every value, batched into shared
// passes.
func (a *attackRun) stageMantissa() error {
	all := make([]mantItem, a.nVals)
	for v := range all {
		all[v] = mantItem{idx: v, cfg: a.cfg}
	}
	outs, err := runMantissa(a.src, all, a.workers)
	if err != nil {
		return err
	}
	for v := range a.mags {
		a.mags[v].mant = assembleMant(outs[v].d, outs[v].c)
		a.mags[v].pruneCorr = outs[v].corr
		a.mags[v].gap = outs[v].gap
	}
	return nil
}

// stageEscalation re-runs weak-prune values with a TopK×8 beam: a weak
// prune winner usually means the extend phase dropped the true prefix.
func (a *attackRun) stageEscalation() error {
	if a.cfg.TopK >= maxTopK {
		return nil
	}
	big := a.cfg
	big.TopK = min(a.cfg.TopK*8, maxTopK)
	var esc []mantItem
	for v := range a.mags {
		if a.mags[v].pruneCorr < a.cfg.EscalateBelow {
			esc = append(esc, mantItem{idx: v, cfg: big})
		}
	}
	if len(esc) == 0 {
		return nil
	}
	eouts, err := runMantissa(a.src, esc, a.workers)
	if err != nil {
		return err
	}
	for i, it := range esc {
		if eouts[i].corr > a.mags[it.idx].pruneCorr {
			a.mags[it.idx].mant = assembleMant(eouts[i].d, eouts[i].c)
			a.mags[it.idx].pruneCorr = eouts[i].corr
			a.mags[it.idx].gap = eouts[i].gap
			a.mags[it.idx].escalated = true
		}
	}
	return nil
}

// stageSigns runs the joint sign pass for every coefficient and assembles
// the recovered values and their per-phase diagnostics.
func (a *attackRun) stageSigns() error {
	jjobs := make([]*jointSignJob, a.half)
	jobs := make([]passJob, a.half)
	for k := 0; k < a.half; k++ {
		jjobs[k] = newJointSignJob(k, a.mags[2*k].abs(), a.mags[2*k+1].abs())
		jobs[k] = jjobs[k]
	}
	if err := runPass(a.src, jobs, a.workers); err != nil {
		return err
	}
	a.out = make([]fft.Cplx, a.half)
	a.results = make([]ValueResult, a.nVals)
	thr := cpa.Threshold(a.cfg.Confidence, a.count)
	for k := 0; k < a.half; k++ {
		sRe, sIm, signCorr := jjobs[k].result()
		re := fpr.FPR(uint64(sRe)<<63) | a.mags[2*k].abs()
		im := fpr.FPR(uint64(sIm)<<63) | a.mags[2*k+1].abs()
		a.out[k] = fft.Cplx{Re: re, Im: im}
		for p, v := range []fpr.FPR{re, im} {
			m := a.mags[2*k+p]
			a.results[2*k+p] = ValueResult{
				Value:           v,
				SignCorr:        signCorr,
				ExpCorr:         m.expCorr,
				ExpAlternatives: m.expAlts,
				PruneCorr:       m.pruneCorr,
				RunnerUpGap:     m.gap,
				Escalated:       m.escalated,
				Significant:     signCorr >= thr && m.expCorr >= thr && m.pruneCorr >= thr,
				TracesUsed:      a.count,
			}
		}
	}
	return nil
}

// stageStragglers gives a second chance to values far below the
// campaign's median prune correlation: they re-run with the maximal beam
// (their extend passes are shared) and accepted fixes redo the joint sign
// attack with the corrected magnitudes. A value whose mantissa already
// came out of that very run is skipped (see ranAtMaxBeam).
func (a *attackRun) stageStragglers() error {
	med := medianPrune(a.results)
	var weak []int
	for v, r := range a.results {
		if r.PruneCorr < 0.8*med && !a.ranAtMaxBeam(r) {
			weak = append(weak, v)
		}
	}
	_, err := retryMaxBeam(a.src, a.cfg, a.out, a.results, weak)
	return err
}

// ranAtMaxBeam reports whether r's current mantissa already came out of
// runMantissa at the maximal beam, the exact run a straggler retry
// repeats. That holds for every value when the base beam is maximal, and
// for every escalation candidate when escalation ran at the maximal beam:
// a candidate either took the escalated result (Escalated) or kept a
// prune correlation still under EscalateBelow. The retry is deterministic,
// so it would return the same correlation and fail retryMaxBeam's
// improvement check. Everything here is restored state, so a resumed run
// skips the same values.
func (a *attackRun) ranAtMaxBeam(r ValueResult) bool {
	if a.cfg.TopK >= maxTopK {
		return true
	}
	return min(a.cfg.TopK*8, maxTopK) == maxTopK && (r.Escalated || r.PruneCorr < a.cfg.EscalateBelow)
}

// retryMaxBeam re-attacks the listed value indices with the maximal
// candidate beam, updating out and results in place for every value whose
// prune correlation improves (the joint sign attack is redone with the
// corrected magnitude). It returns the indices that improved. The exponent
// of each value is kept — only mantissa and signs are redone — so callers
// chasing exponent errors should walk ExpAlternatives instead.
func retryMaxBeam(src Source, cfg Config, out []fft.Cplx, results []ValueResult, indices []int) ([]int, error) {
	if len(indices) == 0 {
		return nil, nil
	}
	retry := cfg.withDefaults()
	retry.TopK = maxTopK
	retry.EscalateBelow = -1 // beam already maximal; no inner escalation
	workers := effectiveWorkers(retry.Workers)
	items := make([]mantItem, len(indices))
	for i, v := range indices {
		items[i] = mantItem{idx: v, cfg: retry}
	}
	wouts, err := runMantissa(src, items, workers)
	if err != nil {
		return nil, err
	}
	var improved []int
	for i, it := range items {
		v := it.idx
		k, part := v/2, Part(v%2)
		r := results[v]
		if wouts[i].corr <= r.PruneCorr {
			continue
		}
		// Rebuild the magnitude with the retried mantissa, keeping the
		// recovered exponent (the value's bit pattern carries it).
		exp := uint64(r.Value) >> 52 & 0x7FF
		newAbs := fpr.FPR(exp<<52 | assembleMant(wouts[i].d, wouts[i].c))
		if part == PartRe {
			out[k].Re = fpr.FPR(uint64(out[k].Re.Sign())<<63) | newAbs
		} else {
			out[k].Im = fpr.FPR(uint64(out[k].Im.Sign())<<63) | newAbs
		}
		absRe := fpr.Abs(out[k].Re)
		absIm := fpr.Abs(out[k].Im)
		jj := newJointSignJob(k, absRe, absIm)
		if err := runPass(src, []passJob{jj}, workers); err != nil {
			return improved, err
		}
		s0, s1, signCorr := jj.result()
		out[k].Re = fpr.FPR(uint64(s0)<<63) | absRe
		out[k].Im = fpr.FPR(uint64(s1)<<63) | absIm
		r.Value = out[k].Re
		if part == PartIm {
			r.Value = out[k].Im
		}
		r.PruneCorr = wouts[i].corr
		r.RunnerUpGap = wouts[i].gap
		r.SignCorr = signCorr
		r.Escalated = true
		results[v] = r
		improved = append(improved, v)
	}
	return improved, nil
}

// medianPrune returns the median prune correlation across values.
func medianPrune(results []ValueResult) float64 {
	vals := make([]float64, len(results))
	for i, r := range results {
		vals[i] = r.PruneCorr
	}
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
}
