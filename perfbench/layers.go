package main

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"falcondown/internal/core"
	"falcondown/internal/emleak"
	"falcondown/internal/tracestore"
)

// layerMetric is one per-layer metric of the traced run. moves names the
// end-to-end metrics it should move; where names the workload on which
// it weighs most and, after a semicolon, where it should not move. An
// exact metric is a count of deterministic work, equal in every traced
// run of a workload. BENCHMARK.json lists the same names, units and
// directions.
type layerMetric struct {
	name, unit, better string
	moves, where       string
	exact              bool
}

// perLayer is the traced run's output: each figure is a mean per victim
// attack (set-up figures: per victim set-up; falcon.sign_s and
// falcon.verify_s: per recovered attack), except bench.trace_overhead,
// the traced median key time over the untraced one, minus one, both in
// reference seconds (probe.go). The other times are wall seconds. Counts
// repeat exactly from run to run; times do not.
var perLayer = []layerMetric{
	{"falcon.keygen_s", "s", "lower", "setup_s", "falcon64-w2", false},
	{"tracestore.acquire_s", "s", "lower", "setup_s, corpus_mb", "falcon16-w1; not falcon16-dirty-w2, which acquires through supervise", false},
	{"tracestore.acquire_traces_per_s", "1/s", "higher", "setup_s", "falcon16-w1; not falcon16-dirty-w2", false},
	{"supervise.acquire_s", "s", "lower", "setup_s", "falcon16-dirty-w2; not called on the other two", false},
	{"supervise.retried", "count", "lower", "setup_s", "falcon16-dirty-w2; not called on the other two", true},
	{"tracestore.open_s", "s", "lower", "setup_s", "all", false},
	{"tracestore.read_s", "s", "lower", "key_s", "falcon16-w1 (critical path); less at W=2, where the prefetch goroutine overlaps it", false},
	{"tracestore.passes", "count", "lower", "key_s", "all", true},
	{"tracestore.traces_read", "count", "lower", "key_s", "falcon16-w1", true},
	{"core.robust_s", "s", "lower", "key_s", "falcon16-dirty-w2; about 0 on the other two", false},
	{"core.exponents_s", "s", "lower", "key_s", "all", false},
	{"core.mantissa_s", "s", "lower", "key_s", "all", false},
	{"core.escalation_s", "s", "lower", "key_s", "falcon64-w2", false},
	{"core.signs_s", "s", "lower", "key_s", "all", false},
	{"core.stragglers_s", "s", "lower", "key_s", "falcon64-w2", false},
	{"core.exponents_passes", "count", "lower", "key_s", "all", true},
	{"core.mantissa_passes", "count", "lower", "key_s", "all", true},
	{"core.escalation_passes", "count", "lower", "key_s", "falcon64-w2", true},
	{"core.signs_passes", "count", "lower", "key_s", "all", true},
	{"core.stragglers_passes", "count", "lower", "key_s", "falcon64-w2, falcon16-w1", true},
	{"core.escalation_candidates", "count", "lower", "key_s", "falcon64-w2", true},
	{"core.escalation_improved", "count", "higher", "key_s", "falcon64-w2", true},
	{"core.straggler_candidates", "count", "lower", "key_s", "falcon64-w2, falcon16-w1", true},
	{"core.straggler_already_escalated", "count", "lower", "key_s", "falcon16-w1 (redundant maximal-beam retries), falcon64-w2", true},
	{"core.straggler_improved", "count", "higher", "key_s", "falcon64-w2, falcon16-w1", true},
	{"core.tail_s", "s", "lower", "key_s", "falcon64-w2 (failed victims search tie families); under 1 ms on falcon16", false},
	{"core.alloc_mb", "MB", "lower", "key_s, peak_rss_mb", "all", false},
	{"core.gc_cycles", "count", "lower", "key_s, peak_rss_mb", "all", false},
	{"falcon.sign_s", "s", "lower", "key_s (under 1%)", "recovered victims; not called on failed ones", false},
	{"falcon.verify_s", "s", "lower", "key_s (under 1%)", "recovered victims; not called on failed ones", false},
	{"bench.trace_overhead", "ratio", "lower", "none", "none", false},
}

// stages are the attack's checkpointed stages in execution order; the
// in-memory store expects one Save after each.
var stages = []string{core.StageExponents, core.StageMantissa, core.StageEscalation, core.StageSigns, core.StageStragglers}

type stat struct {
	sum float64
	n   int
}

// layers accumulates the traced run's figures. A nil *layers records
// nothing, so the untraced path shares the set-up code.
type layers struct {
	stats  map[string]*stat
	traced []step // traced attack samples
}

func newLayers() *layers { return &layers{stats: map[string]*stat{}} }

func (l *layers) add(name string, v float64) {
	if l == nil {
		return
	}
	s := l.stats[name]
	if s == nil {
		s = &stat{}
		l.stats[name] = s
	}
	s.sum += v
	s.n++
}

// value is the reported figure of one per-layer metric; untracedKey is
// the run's untraced median key time in reference seconds.
func (l *layers) value(name string, untracedKey float64) float64 {
	if name == "bench.trace_overhead" {
		if untracedKey <= 0 {
			return 0
		}
		return median(stepSeconds(l.traced, step.ref))/untracedKey - 1
	}
	s := l.stats[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// tracedSource wraps an opened corpus: it counts passes (Iterate) and
// observations (Next) and sums the time spent inside Next. It is the
// benchmark's only view into the read layer; the attack's code path is
// the same as on the bare corpus, which is read through the Source
// interface either way.
type tracedSource struct {
	tracestore.Source
	passes atomic.Int64
	traces atomic.Int64
	readNs atomic.Int64
}

func (s *tracedSource) Iterate() (tracestore.Iterator, error) {
	it, err := s.Source.Iterate()
	if err != nil {
		return nil, err
	}
	s.passes.Add(1)
	return &tracedIterator{Iterator: it, src: s}, nil
}

type tracedIterator struct {
	tracestore.Iterator
	src *tracedSource
}

func (it *tracedIterator) Next() (emleak.Observation, error) {
	start := time.Now()
	o, err := it.Iterator.Next()
	it.src.readNs.Add(int64(time.Since(start)))
	if err == nil {
		it.src.traces.Add(1)
	}
	return o, err
}

// mark is what the in-memory store sees at Load or at one Save: when,
// how many passes the source had started, and the checkpoint saved.
type mark struct {
	at     time.Time
	passes int64
	ck     *core.Checkpoint
}

// memStore is an in-memory core.CheckpointStore. Load reports a fresh
// run; the attack calls it once robust preprocessing is done (the
// checkpoint binds the post-trim trace count), right before the exponent
// pass starts, so it marks the end of core.robust_s. Save is called after
// each stage. Unlike core.FileCheckpoint nothing is serialized or
// fsynced.
type memStore struct {
	src   *tracedSource
	load  mark
	saves []mark
}

func (m *memStore) Load() (*core.Checkpoint, error) {
	m.load = mark{at: time.Now(), passes: m.src.passes.Load()}
	return nil, nil
}

func (m *memStore) Save(ck *core.Checkpoint) error {
	m.saves = append(m.saves, mark{at: time.Now(), passes: m.src.passes.Load(), ck: ck})
	return nil
}

// addAttack adds one traced attack's read, stage and retry figures.
// start is the call into core, recovered its return.
func (l *layers) addAttack(src *tracedSource, store *memStore, start, recovered time.Time) error {
	if len(store.saves) != len(stages) {
		return fmt.Errorf("trace: %d checkpoint saves, want one per stage (%d)", len(store.saves), len(stages))
	}
	l.add("tracestore.passes", float64(src.passes.Load()))
	l.add("tracestore.traces_read", float64(src.traces.Load()))
	l.add("tracestore.read_s", time.Duration(src.readNs.Load()).Seconds())
	l.add("core.robust_s", store.load.at.Sub(start).Seconds())
	prev := store.load
	for i, m := range store.saves {
		if m.ck.Stage != stages[i] {
			return fmt.Errorf("trace: save %d is stage %q, want %q", i, m.ck.Stage, stages[i])
		}
		l.add("core."+stages[i]+"_s", m.at.Sub(prev.at).Seconds())
		l.add("core."+stages[i]+"_passes", float64(m.passes-prev.passes))
		prev = m
	}
	l.add("core.tail_s", recovered.Sub(prev.at).Seconds())

	y, err := retryYield(store.saves)
	if err != nil {
		return err
	}
	l.add("core.escalation_candidates", float64(y.escCandidates))
	l.add("core.escalation_improved", float64(y.escImproved))
	l.add("core.straggler_candidates", float64(y.stragCandidates))
	l.add("core.straggler_already_escalated", float64(y.stragAlreadyEscalated))
	l.add("core.straggler_improved", float64(y.stragImproved))
	return nil
}

type yield struct {
	escCandidates, escImproved                            int
	stragCandidates, stragAlreadyEscalated, stragImproved int
}

// retryYield reads the escalation and straggler stages' work and yield
// from the five saved checkpoints. The candidate rules are core's as read
// at this commit (stageEscalation and stageStragglers): a value escalates
// when its prune correlation is below EscalateBelow, with a beam of
// min(8·TopK, MaxBeam); it straggles when its prune correlation is below
// 0.8 times the median, and then re-runs at MaxBeam. A straggler that
// already escalated at MaxBeam repeats a deterministic attack.
func retryYield(saves []mark) (yield, error) {
	mant, esc, signs, strag := saves[1].ck, saves[2].ck, saves[3].ck, saves[4].ck
	n := len(mant.Mags)
	if len(esc.Mags) != n || len(signs.Results) != n || len(strag.Results) != n {
		return yield{}, errors.New("trace: checkpoints disagree on the number of values")
	}
	var y yield
	cfg := mant.Config // defaults applied
	escalates := make([]bool, n)
	if cfg.TopK < core.MaxBeam {
		for v, m := range mant.Mags {
			if m.PruneCorr < cfg.EscalateBelow {
				escalates[v] = true
				y.escCandidates++
			}
		}
	}
	escAtMax := min(cfg.TopK*8, core.MaxBeam) == core.MaxBeam
	for _, m := range esc.Mags {
		if m.Escalated {
			y.escImproved++
		}
	}
	prunes := make([]float64, n)
	for v, r := range signs.Results {
		prunes[v] = r.PruneCorr
	}
	slices.Sort(prunes)
	med := prunes[n/2]
	for v, r := range signs.Results {
		if r.PruneCorr >= 0.8*med {
			continue
		}
		y.stragCandidates++
		if escalates[v] && escAtMax {
			y.stragAlreadyEscalated++
		}
		if strag.Results[v].PruneCorr > r.PruneCorr {
			y.stragImproved++
		}
	}
	return y, nil
}
