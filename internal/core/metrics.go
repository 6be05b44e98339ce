package core

import (
	"time"

	"falcondown/internal/obs"
)

// Passive observability taps over the CPA sweep engine and the staged
// attack. Everything is recorded at pass/shard/stage granularity — the
// accumulator hot loop is untouched — and no metric feeds back into
// Config, the pinned shard fold, or any checkpoint, so recovered keys
// and sidecars are byte-identical with obs on or off (proven by the
// obs differential test in internal/cluster).
var (
	mSweepPasses = obs.NewCounter("falcon_sweep_passes_total",
		"corpus sweep passes executed (serial, parallel or distributed)")
	mSweepTraces = obs.NewCounter("falcon_sweep_traces_total",
		"traces streamed through sweep passes (corpus count x passes)")
	mSweepJobs = obs.NewCounter("falcon_sweep_jobs_total",
		"accumulator jobs carried by sweep passes")
	mSweepHypothesisUpdates = obs.NewCounter("falcon_sweep_hypothesis_updates_total",
		"hypothesis-accumulator updates (traces x jobs per pass)")
	mSweepPassSeconds = obs.NewHistogram("falcon_sweep_pass_seconds",
		"wall-clock of one full corpus sweep pass", obs.DurationBuckets)
	mSweepShardSeconds = obs.NewHistogram("falcon_sweep_shard_seconds",
		"wall-clock of folding one 64-observation shard into its jobs",
		[]float64{1e-5, 1e-4, 1e-3, 0.01, 0.1, 1})
	mAttackStageSeconds  = map[string]*obs.Histogram{}
	mSweepCellThroughput = obs.NewGauge("falcon_sweep_update_throughput",
		"accumulator-cell updates per second of the last sweep pass (traces x cells)")
)

func init() {
	for _, stage := range []string{StageExponents, StageMantissa,
		StageEscalation, StageSigns, StageStragglers} {
		mAttackStageSeconds[stage] = obs.NewHistogram(
			"falcon_attack_stage_seconds",
			"wall-clock of one completed attack stage",
			obs.DurationBuckets, obs.Label{Name: "stage", Value: stage})
	}
}

// cellJob is implemented by pass jobs that report how many accumulator
// cells (hypothesis x sample sums) one observation updates — the
// numerator of the sweep throughput gauge.
type cellJob interface {
	cells() int
}

// observeCells refreshes the cell-update throughput gauge from a finished
// pass. Jobs without cells (welford) contribute nothing.
func observeCells(traces int, jobs []passJob, elapsed time.Duration) {
	cells := 0
	for _, j := range jobs {
		if cj, ok := j.(cellJob); ok {
			cells += cj.cells()
		}
	}
	if sec := elapsed.Seconds(); sec > 0 && cells > 0 {
		mSweepCellThroughput.Set(float64(traces) * float64(cells) / sec)
	}
}

// observePass records one completed sweep pass. The per-trace and
// per-hypothesis rates campaignctl top derives come from these
// counters plus the pass histogram's sum.
func observePass(traces int, jobs []passJob, elapsed time.Duration) {
	mSweepPasses.Inc()
	mSweepTraces.Add(int64(traces))
	mSweepJobs.Add(int64(len(jobs)))
	mSweepHypothesisUpdates.Add(int64(traces) * int64(len(jobs)))
	mSweepPassSeconds.Observe(elapsed.Seconds())
	observeCells(traces, jobs, elapsed)
}

// stageSpan times one attack stage; unknown stages get an inert span.
func stageSpan(stage string) *obs.Span {
	return obs.StartSpan(mAttackStageSeconds[stage])
}
