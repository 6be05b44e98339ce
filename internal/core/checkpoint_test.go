package core

import (
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"falcondown/internal/tracestore"
)

// countingSource wraps a Source and counts how many corpus sweeps
// (Iterate calls) the attack performs — the currency a checkpoint is
// supposed to save.
type countingSource struct {
	inner  tracestore.Source
	sweeps atomic.Int64
}

func (s *countingSource) N() int     { return s.inner.N() }
func (s *countingSource) Count() int { return s.inner.Count() }
func (s *countingSource) Iterate() (tracestore.Iterator, error) {
	s.sweeps.Add(1)
	return s.inner.Iterate()
}

// checkpointFixture builds a small campaign, a counting source over it,
// and a sidecar store in a temp dir.
func checkpointFixture(t *testing.T) (*countingSource, *FileCheckpoint) {
	t.Helper()
	dev, _, _ := deviceFor(t, 8, 2.0, 14)
	obs := collect(t, dev, 400, 15)
	src := &countingSource{inner: tracestore.NewSliceSource(8, obs)}
	store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	return src, store
}

func sameValueResults(t *testing.T, want, got []ValueResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for v := range want {
		w, g := want[v], got[v]
		if w.Value != g.Value || w.SignCorr != g.SignCorr || w.ExpCorr != g.ExpCorr ||
			w.PruneCorr != g.PruneCorr || w.RunnerUpGap != g.RunnerUpGap ||
			w.Escalated != g.Escalated || w.Significant != g.Significant ||
			w.TracesUsed != g.TracesUsed {
			t.Fatalf("value %d differs: want %+v got %+v", v, w, g)
		}
	}
}

func TestCheckpointedAttackMatchesDirect(t *testing.T) {
	// Checkpointing must be pure bookkeeping: the attack with a sidecar
	// produces bit-identical results to the attack without one.
	src, store := checkpointFixture(t)

	directFFT, directVals, err := AttackFFTfFrom(src.inner, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckFFT, ckVals, err := AttackFFTfResumable(src.inner, Config{}, store)
	if err != nil {
		t.Fatal(err)
	}
	for k := range directFFT {
		if directFFT[k] != ckFFT[k] {
			t.Fatalf("coefficient %d differs between checkpointed and direct attack", k)
		}
	}
	sameValueResults(t, directVals, ckVals)

	// The sidecar records the final phase as complete.
	ck, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ck == nil || ck.Stage != StageStragglers {
		t.Fatalf("sidecar after full run: %+v", ck)
	}
}

func TestResumeFromCompleteCheckpointSweepsNothing(t *testing.T) {
	// A rerun against a fully-complete checkpoint must answer from the
	// sidecar alone: zero corpus sweeps.
	src, store := checkpointFixture(t)
	wantFFT, wantVals, err := AttackFFTfResumable(src, Config{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if src.sweeps.Load() == 0 {
		t.Fatal("fresh attack performed no sweeps; counting wrapper is broken")
	}

	src.sweeps.Store(0)
	gotFFT, gotVals, err := AttackFFTfResumable(src, Config{}, store)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.sweeps.Load(); n != 0 {
		t.Fatalf("resume from a complete checkpoint swept the corpus %d time(s)", n)
	}
	for k := range wantFFT {
		if wantFFT[k] != gotFFT[k] {
			t.Fatalf("coefficient %d differs after resume", k)
		}
	}
	sameValueResults(t, wantVals, gotVals)
}

func TestResumeSkipsCompletedPhases(t *testing.T) {
	// A checkpoint truncated back to the mantissa phase must rerun only
	// the later phases: strictly fewer sweeps than a fresh run, same
	// results bit-for-bit.
	src, store := checkpointFixture(t)
	wantFFT, wantVals, err := AttackFFTfResumable(src, Config{}, store)
	if err != nil {
		t.Fatal(err)
	}
	fresh := src.sweeps.Load()

	// Simulate a run killed between the mantissa and escalation phases:
	// rewind the sidecar to "mantissa complete".
	ck, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	ck.Stage = StageMantissa
	ck.Results = nil
	if err := store.Save(ck); err != nil {
		t.Fatal(err)
	}

	src.sweeps.Store(0)
	gotFFT, gotVals, err := AttackFFTfResumable(src, Config{}, store)
	if err != nil {
		t.Fatal(err)
	}
	resumed := src.sweeps.Load()
	if resumed == 0 {
		t.Fatal("resume from mantissa ran no sweeps; signs phase was skipped")
	}
	if resumed >= fresh {
		t.Fatalf("resume swept %d times, fresh run %d; completed phases were repeated", resumed, fresh)
	}
	for k := range wantFFT {
		if wantFFT[k] != gotFFT[k] {
			t.Fatalf("coefficient %d differs after resume", k)
		}
	}
	sameValueResults(t, wantVals, gotVals)

	// And the resumed run rewrote the sidecar to completion.
	ck, err = store.Load()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Stage != StageStragglers {
		t.Fatalf("sidecar stage after resume: %q", ck.Stage)
	}
}

func TestCheckpointMismatchRejected(t *testing.T) {
	// A sidecar from a different campaign or configuration must refuse to
	// resume rather than silently blending state.
	src, store := checkpointFixture(t)
	if _, _, err := AttackFFTfResumable(src, Config{}, store); err != nil {
		t.Fatal(err)
	}
	good, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(ck *Checkpoint)
	}{
		{"wrong degree", func(ck *Checkpoint) { ck.N = 16 }},
		{"wrong trace count", func(ck *Checkpoint) { ck.Count++ }},
		{"wrong config", func(ck *Checkpoint) { ck.Config.TopK *= 2 }},
		{"future format", func(ck *Checkpoint) { ck.Format++ }},
		{"unknown stage", func(ck *Checkpoint) { ck.Stage = "warp" }},
		{"truncated mags", func(ck *Checkpoint) { ck.Mags = ck.Mags[:3] }},
		{"truncated results", func(ck *Checkpoint) { ck.Results = ck.Results[:3] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ck := *good
			ck.Mags = append([]MagCheckpoint(nil), good.Mags...)
			ck.Results = append([]ValueCheckpoint(nil), good.Results...)
			tc.mutate(&ck)
			if err := store.Save(&ck); err != nil {
				t.Fatal(err)
			}
			_, _, err := AttackFFTfResumable(src, Config{}, store)
			if !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("got %v, want ErrCheckpointMismatch", err)
			}
		})
	}

	t.Run("unparseable sidecar", func(t *testing.T) {
		if err := os.WriteFile(store.Path, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := AttackFFTfResumable(src, Config{}, store)
		if !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("got %v, want ErrCheckpointMismatch", err)
		}
	})
}

func TestFileCheckpointLifecycle(t *testing.T) {
	store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "a.ckpt")}
	// Missing sidecar means a fresh run, not an error.
	ck, err := store.Load()
	if err != nil || ck != nil {
		t.Fatalf("Load on missing sidecar: %v, %+v", err, ck)
	}
	// Remove of a missing sidecar is a no-op.
	if err := store.Remove(); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(&Checkpoint{Format: checkpointFormat, Stage: StageExponents}); err != nil {
		t.Fatal(err)
	}
	if ck, err = store.Load(); err != nil || ck == nil || ck.Stage != StageExponents {
		t.Fatalf("round-trip: %v, %+v", err, ck)
	}
	if err := store.Remove(); err != nil {
		t.Fatal(err)
	}
	if ck, err = store.Load(); err != nil || ck != nil {
		t.Fatalf("Load after Remove: %v, %+v", err, ck)
	}
}

func TestStragglersSkipRetriesAlreadyRunAtMaxBeam(t *testing.T) {
	// On this corpus every straggler candidate escalated at the maximal
	// beam, so a straggler retry repeats a deterministic run. The stage
	// must skip it: fewer passes, and the same values, report and sidecar
	// as a run that retries every candidate.
	dev, _, _ := deviceFor(t, 8, 2.0, 5)
	obs := collect(t, dev, 400, 6)
	src := &countingSource{inner: tracestore.NewSliceSource(8, obs)}
	cfg := Config{Workers: 1}
	dir := t.TempDir()

	store := &FileCheckpoint{Path: filepath.Join(dir, "skip.ckpt")}
	out, vals, err := AttackFFTfResumable(src, cfg, store)
	if err != nil {
		t.Fatal(err)
	}
	skipPasses := src.sweeps.Load()
	sidecar, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatal(err)
	}

	// The same attack up to the straggler stage, then the stage as it ran
	// before the skip: every candidate retried at the maximal beam.
	src.sweeps.Store(0)
	full := &FileCheckpoint{Path: filepath.Join(dir, "retry.ckpt")}
	if _, _, err := AttackFFTfResumable(src, cfg, &failingStore{inner: full, remaining: 4}); !errors.Is(err, errKilled) {
		t.Fatalf("interrupted run returned %v, want simulated crash", err)
	}
	ck, err := full.Load()
	if err != nil || ck.Stage != StageSigns {
		t.Fatalf("checkpoint after signs: %+v, %v", ck, err)
	}
	a := &attackRun{src: src, cfg: cfg.withDefaults(), store: full, workers: 1, n: 8, half: 4, count: 400, nVals: 8}
	if _, err := a.restore(ck); err != nil {
		t.Fatal(err)
	}
	med := medianPrune(a.results)
	var weak, redundant []int
	for v, r := range a.results {
		if r.PruneCorr < 0.8*med {
			weak = append(weak, v)
			if a.ranAtMaxBeam(r) {
				redundant = append(redundant, v)
			}
		}
	}
	if len(redundant) == 0 || len(redundant) != len(weak) {
		t.Fatalf("fixture drifted: %d straggler candidates, %d already at the maximal beam", len(weak), len(redundant))
	}
	improved, err := retryMaxBeam(src, a.cfg, a.out, a.results, weak)
	if err != nil {
		t.Fatal(err)
	}
	if len(improved) != 0 {
		t.Fatalf("retry improved values %v that ran at the maximal beam", improved)
	}
	if err := a.save(StageStragglers); err != nil {
		t.Fatal(err)
	}
	retryPasses := src.sweeps.Load()
	retrySidecar, err := os.ReadFile(full.Path)
	if err != nil {
		t.Fatal(err)
	}

	if retryPasses <= skipPasses {
		t.Fatalf("retrying took %d passes, skipping %d: the skip saved nothing", retryPasses, skipPasses)
	}
	sameValueResults(t, a.results, vals)
	for k := range out {
		if out[k] != a.out[k] {
			t.Fatalf("coefficient %d differs from the retrying run", k)
		}
	}
	if string(sidecar) != string(retrySidecar) {
		t.Fatal("sidecar differs from the retrying run")
	}
}
