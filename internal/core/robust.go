package core

import (
	"cmp"
	"math"
	"slices"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/tracestore"
)

// Dirty-trace hardening. A real capture rig emits a few percent of
// saturated, desynchronized or drifting traces; plain Pearson CPA is
// fragile against them (one full-scale outlier outweighs hundreds of
// clean traces in the cross-product sums). When Config.Robust is enabled
// the attack first derives a pinned preprocessing plan from the corpus —
// which traces to drop, the alignment template, the winsorization bounds
// — and then runs every phase through a transforming Source that applies
// the identical plan on every pass, preserving the multi-pass contract
// (each sweep sees the same traces, same order, same bytes).

// RobustConfig tunes the dirty-trace preprocessing. The zero value
// disables it entirely.
type RobustConfig struct {
	// TrimSigmas drops traces whose RMS energy is more than this many
	// robust standard deviations (median/MAD) from the campaign's
	// typical energy — saturated or dead captures (0 disables).
	TrimSigmas float64
	// ResyncShift realigns each trace against the campaign-mean template
	// by cross-correlation over ±ResyncShift samples, undoing trigger
	// desync (0 disables).
	ResyncShift int
	// Winsorize clamps every sample into its per-position mean ± k·σ
	// band, with the band refined once on the clamped data so outliers
	// do not inflate their own bounds (0 disables).
	Winsorize float64
}

// Enabled reports whether any preprocessing step is active.
func (r RobustConfig) Enabled() bool {
	return r.TrimSigmas > 0 || r.ResyncShift > 0 || r.Winsorize > 0
}

// prepareRobust derives the preprocessing plan from the corpus (up to
// three extra sweeps) and returns the transforming source. The plan is a
// pure function of the corpus bytes and rc — never of the worker count:
// the per-trace pass writes into index-keyed slots and the per-sample
// pass folds shard partials in the canonical order — so resumed attacks
// rebuild the identical plan at any parallelism.
func prepareRobust(src Source, rc RobustConfig, workers int) (Source, error) {
	// A distributed attack derives the identical plan: the RMS pass runs
	// coordinator-local (the coordinator owns the corpus anyway), the
	// welford passes distribute as wire jobs against the masked view, and
	// the finished plan is described to workers through the wire view so
	// every later pass sees the same transformed bytes.
	ds, distributed := src.(*distSource)
	if distributed {
		src = ds.Source
	}
	finish := func(rs *robustSource, masks [][]int) Source {
		if !distributed {
			return rs
		}
		view := SourceSpec{Masks: masks, Robust: rs.planSpec()}
		return &distSource{Source: rs, dist: ds.dist, view: view, pin: ds.pin}
	}

	// Pass 1: per-trace RMS energies, keyed by corpus index.
	rms := make([]float64, src.Count())
	if err := parallelMap(src, workers, func(idx int, o emleak.Observation) {
		rms[idx] = cpa.RMS(o.Trace.Samples)
	}); err != nil {
		return nil, err
	}
	var skip []int
	if rc.TrimSigmas > 0 {
		skip = energyOutliers(rms, rc.TrimSigmas)
	}
	base := src
	var masks [][]int
	if len(skip) > 0 {
		base = tracestore.NewMaskedSource(src, skip)
		masks = [][]int{skip}
	}
	sweepSrc := base
	if distributed {
		sweepSrc = &distSource{Source: base, dist: ds.dist, view: SourceSpec{Masks: masks}, pin: ds.pin}
	}
	rs := &robustSource{inner: base, cfg: rc, trimmed: len(skip)}
	if rc.ResyncShift <= 0 && rc.Winsorize <= 0 {
		return finish(rs, masks), nil
	}

	// Pass 2 (kept traces): per-sample mean template and variance.
	mean, m2, n, err := sampleStats(sweepSrc, nil, false, workers)
	if err != nil {
		return nil, err
	}
	rs.template = mean
	if rc.Winsorize <= 0 {
		return finish(rs, masks), nil
	}
	lo, hi := winsorBounds(mean, m2, n, rc.Winsorize)

	// Pass 3: refine the bounds on resynced-and-clamped data, so the
	// outliers being clamped do not inflate the σ that bounds them.
	rs.lo, rs.hi = lo, hi
	mean2, m22, n2, err := sampleStats(sweepSrc, rs, true, workers)
	if err != nil {
		return nil, err
	}
	rs.lo, rs.hi = winsorBounds(mean2, m22, n2, rc.Winsorize)
	return finish(rs, masks), nil
}

// energyOutliers flags indices whose value sits more than k robust
// standard deviations from the median (MAD-based; falls back to the
// plain σ when the MAD degenerates to zero).
func energyOutliers(vals []float64, k float64) []int {
	if len(vals) < 3 {
		return nil
	}
	med := medianOf(vals)
	dev := make([]float64, len(vals))
	for i, v := range vals {
		dev[i] = math.Abs(v - med)
	}
	scale := 1.4826 * medianOf(dev)
	if scale == 0 {
		var st cpa.RunningStats
		for _, v := range vals {
			st.Add(v)
		}
		scale = st.Std()
	}
	if scale == 0 {
		return nil
	}
	var out []int
	for i, v := range vals {
		if math.Abs(v-med) > k*scale {
			out = append(out, i)
		}
	}
	return out
}

// medianOf returns the middle of vals as an insertion sort by < would
// order them. Such a sort never moves a value past a NaN and keeps equal
// values (−0 and +0 too) in their order, so it stable-sorts each NaN-free
// run in place; medianOf does exactly that, in O(n log n) where the
// insertion sort was quadratic in the trace count.
func medianOf(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	lo := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || math.IsNaN(s[i]) {
			slices.SortStableFunc(s[lo:i], cmp.Compare[float64])
			lo = i + 1
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// welfordJob accumulates per-sample Welford statistics as a job, so
// the preprocessing statistics ride the same canonical sharded reduction
// as the attack passes: clones fold their shard partials in shard order
// (Chan's combination in RunningStats.Merge), making the derived plan a
// deterministic, worker-count-independent function of the corpus. When
// transform is non-nil each trace is seen through the robustSource's
// resync/clamp pipeline (used by the refinement pass); apply is
// read-only on the source's plan, so clones share it safely.
type welfordJob struct {
	transform *robustSource
	clamp     bool
	stats     []cpa.RunningStats // lazily sized to the trace length
	scratch   []float64
}

func (j *welfordJob) observe(o emleak.Observation) {
	s := o.Trace.Samples
	if j.transform != nil {
		if j.scratch == nil {
			j.scratch = make([]float64, len(s))
		}
		copy(j.scratch, s)
		j.transform.apply(j.scratch, j.clamp)
		s = j.scratch
	}
	if j.stats == nil {
		j.stats = make([]cpa.RunningStats, len(s))
	}
	for i, v := range s {
		j.stats[i].Add(v)
	}
}

func (j *welfordJob) clone() job {
	return &welfordJob{transform: j.transform, clamp: j.clamp}
}

// reset zeroes a folded clone's statistics for reuse.
func (j *welfordJob) reset() { clear(j.stats) }

// cells is 0: the Welford pass updates no hypothesis cells.
func (j *welfordJob) cells() int { return 0 }

func (j *welfordJob) merge(o job) {
	ow := o.(*welfordJob)
	if ow.stats == nil {
		return
	}
	if j.stats == nil {
		j.stats = make([]cpa.RunningStats, len(ow.stats))
	}
	for i := range j.stats {
		j.stats[i].Merge(ow.stats[i])
	}
}

// sampleStats accumulates per-sample mean/m2 over one pass of src.
func sampleStats(src Source, transform *robustSource, clamp bool, workers int) (mean, m2 []float64, n int, err error) {
	j := &welfordJob{transform: transform, clamp: clamp}
	if err := runPass(src, []job{j}, workers); err != nil {
		return nil, nil, 0, err
	}
	if j.stats == nil {
		return nil, nil, 0, nil
	}
	mean = make([]float64, len(j.stats))
	m2 = make([]float64, len(j.stats))
	n = j.stats[0].N()
	for i := range j.stats {
		mean[i] = j.stats[i].Mean()
		m2[i] = j.stats[i].M2()
	}
	return mean, m2, n, nil
}

// winsorBounds converts per-sample Welford accumulators into clamp bands
// mean ± k·σ; zero-variance positions get infinite bands (nothing to
// clamp there).
func winsorBounds(mean, m2 []float64, n int, k float64) (lo, hi []float64) {
	lo = make([]float64, len(mean))
	hi = make([]float64, len(mean))
	for j := range mean {
		sd := 0.0
		if n >= 2 {
			sd = math.Sqrt(m2[j] / float64(n))
		}
		if sd <= 0 {
			lo[j] = math.Inf(-1)
			hi[j] = math.Inf(1)
			continue
		}
		lo[j] = mean[j] - k*sd
		hi[j] = mean[j] + k*sd
	}
	return lo, hi
}

// robustSource is the transforming Source: it masks trimmed traces (via
// its inner MaskedSource), resynchronizes each surviving trace against
// the template, and winsorizes samples into their pinned bands. The plan
// (mask, template, bounds) is fixed at construction, so every Iterate
// yields identical bytes.
type robustSource struct {
	inner    tracestore.Source
	cfg      RobustConfig
	trimmed  int
	template []float64 // per-sample mean of kept traces (resync reference)
	lo, hi   []float64 // winsorization bands (nil until derived)
}

// N implements Source.
func (s *robustSource) N() int { return s.inner.N() }

// Count implements Source (after trimming).
func (s *robustSource) Count() int { return s.inner.Count() }

// Trimmed reports how many traces the energy screen dropped.
func (s *robustSource) Trimmed() int { return s.trimmed }

// apply runs the in-place transform pipeline on one trace's samples.
func (s *robustSource) apply(samples []float64, clamp bool) {
	if s.cfg.ResyncShift > 0 && s.template != nil {
		if lag := cpa.BestLag(samples, s.template, s.cfg.ResyncShift); lag != 0 {
			shifted := make([]float64, len(samples))
			cpa.ShiftInto(shifted, samples, s.template, lag)
			copy(samples, shifted)
		}
	}
	if clamp && s.lo != nil {
		for j, v := range samples {
			if v < s.lo[j] {
				samples[j] = s.lo[j]
			} else if v > s.hi[j] {
				samples[j] = s.hi[j]
			}
		}
	}
}

// Iterate implements Source.
func (s *robustSource) Iterate() (tracestore.Iterator, error) { return s.IterateFrom(0) }

// IterateFrom implements tracestore.Seeker: the transform is per trace, so
// the pass starts where its inner view starts.
func (s *robustSource) IterateFrom(start int) (tracestore.Iterator, error) {
	it, err := tracestore.IterateFrom(s.inner, start)
	if err != nil {
		return nil, err
	}
	return &robustIterator{inner: it, src: s}, nil
}

type robustIterator struct {
	inner tracestore.Iterator
	src   *robustSource
}

func (it *robustIterator) Next() (emleak.Observation, error) {
	o, err := it.inner.Next()
	if err != nil {
		return o, err
	}
	// Copy before transforming: slice-backed sources hand out views of
	// their underlying storage.
	samples := append([]float64(nil), o.Trace.Samples...)
	it.src.apply(samples, true)
	o.Trace = emleak.Trace{Samples: samples}
	return o, nil
}

func (it *robustIterator) Close() error { return it.inner.Close() }

var _ Source = (*robustSource)(nil)
