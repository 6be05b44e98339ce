package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/tracestore"
)

// The differential suite: the proof that the parallel engine is pure
// scheduling. Every test runs the identical attack at several worker
// counts and demands byte equality — recovered values, full diagnostic
// reports, and checkpoint sidecars — against the single-worker reference.
// Nothing here tolerates "close enough": a single flipped mantissa bit in
// one correlation sum fails the suite.

// runAttackAt runs the checkpointed whole-FFT(f) attack at the given
// worker count against a fresh sidecar, returning the recovered vector,
// the per-value reports, and the final sidecar bytes.
func runAttackAt(t *testing.T, src Source, cfg Config, workers int) ([]fft.Cplx, []ValueResult, []byte) {
	t.Helper()
	cfg.Workers = workers
	store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	out, vals, err := AttackFFTfResumable(src, cfg, store)
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	sidecar, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatalf("workers=%d: sidecar: %v", workers, err)
	}
	return out, vals, sidecar
}

// sameAttackOutput asserts bit equality of vectors, reports and sidecars
// between a reference run and a candidate run.
func sameAttackOutput(t *testing.T, label string,
	refOut []fft.Cplx, refVals []ValueResult, refSidecar []byte,
	out []fft.Cplx, vals []ValueResult, sidecar []byte) {
	t.Helper()
	if !reflect.DeepEqual(refOut, out) {
		t.Fatalf("%s: recovered FFT(f) differs from serial reference", label)
	}
	if !reflect.DeepEqual(refVals, vals) {
		t.Fatalf("%s: value reports differ from serial reference", label)
	}
	if string(refSidecar) != string(sidecar) {
		t.Fatalf("%s: checkpoint sidecar bytes differ from serial reference", label)
	}
}

func TestDifferentialAttackBitIdenticalAcrossWorkers(t *testing.T) {
	// Full attack at n=8 (n=16 outside -short), workers 1/2/3/8; the
	// worker counts deliberately include a non-power-of-two and one far
	// above the trace-shard count of small campaigns.
	n, traces := 16, 1200
	if testing.Short() {
		n, traces = 8, 400
	}
	dev, _, _ := deviceFor(t, n, 2.0, 31)
	obs := collect(t, dev, traces, 32)
	src := tracestore.NewSliceSource(n, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)
	for _, w := range []int{2, 3, 8} {
		out, vals, sidecar := runAttackAt(t, src, Config{}, w)
		sameAttackOutput(t, fmt.Sprintf("workers=%d", w),
			refOut, refVals, refSidecar, out, vals, sidecar)
	}
}

func TestDifferentialRobustAttackBitIdenticalAcrossWorkers(t *testing.T) {
	// The robust path adds three preprocessing passes (parallelMap RMS,
	// two welfordJob sweeps) whose derived plan feeds every later pass —
	// a worker-dependent plan would poison everything downstream, so the
	// dirty-corpus attack gets its own differential check.
	dev, _, _ := deviceFor(t, 8, 1.5, 33)
	obs := dirtyCorpus(t, dev, 500)
	src := tracestore.NewSliceSource(8, obs)
	cfg := Config{Robust: RobustConfig{TrimSigmas: 4, ResyncShift: 2, Winsorize: 4}}

	refOut, refVals, refSidecar := runAttackAt(t, src, cfg, 1)
	for _, w := range []int{2, 3, 8} {
		out, vals, sidecar := runAttackAt(t, src, cfg, w)
		sameAttackOutput(t, fmt.Sprintf("robust workers=%d", w),
			refOut, refVals, refSidecar, out, vals, sidecar)
	}
}

func TestDifferentialRecoveredKeysIdenticalAcrossWorkers(t *testing.T) {
	// End-to-end: the assembled signing keys (f, g, F, G) and the
	// recovery reports must match, not just the raw FFT values.
	if testing.Short() {
		t.Skip("key recovery differential covered by the full suite")
	}
	n, traces := 16, 1500
	dev, _, pub := deviceFor(t, n, 2.0, 35)
	obs := collect(t, dev, traces, 36)
	src := tracestore.NewSliceSource(n, obs)

	cfg := Config{Workers: 1}
	refPriv, refRep, refErr := RecoverKeyFrom(src, pub, cfg)
	for _, w := range []int{3, 8} {
		cfg.Workers = w
		priv, rep, err := RecoverKeyFrom(src, pub, cfg)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("workers=%d: error %v, reference %v", w, err, refErr)
		}
		if !reflect.DeepEqual(refPriv, priv) {
			t.Fatalf("workers=%d: recovered private key differs", w)
		}
		if !reflect.DeepEqual(refRep, rep) {
			t.Fatalf("workers=%d: recovery report differs", w)
		}
	}
}

func TestDifferentialFalcon64(t *testing.T) {
	// Structural parity at FALCON-64: same reduced trace budget as the
	// streamed-parity test, serial vs. eight workers.
	if testing.Short() {
		t.Skip("covered at n=8 by TestDifferentialAttackBitIdenticalAcrossWorkers in short mode")
	}
	dev, _, _ := deviceFor(t, 64, 2.0, 21)
	obs := collect(t, dev, 400, 22)
	src := tracestore.NewSliceSource(64, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)
	out, vals, sidecar := runAttackAt(t, src, Config{}, 8)
	sameAttackOutput(t, "falcon64 workers=8",
		refOut, refVals, refSidecar, out, vals, sidecar)
}

// failingStore wraps a CheckpointStore and starts failing Save after a
// set number of successes — the "process killed mid-campaign" fixture.
type failingStore struct {
	inner     CheckpointStore
	remaining int
}

var errKilled = errors.New("simulated crash")

func (s *failingStore) Load() (*Checkpoint, error) { return s.inner.Load() }

func (s *failingStore) Save(ck *Checkpoint) error {
	if s.remaining <= 0 {
		return errKilled
	}
	s.remaining--
	return s.inner.Save(ck)
}

func TestDifferentialResumeSwitchesWorkerCounts(t *testing.T) {
	// A campaign checkpointed at one worker count must resume at any
	// other and still land bit-identical to the uninterrupted serial run:
	// the sidecar records worker-topology-independent state only.
	dev, _, _ := deviceFor(t, 8, 2.0, 37)
	obs := collect(t, dev, 400, 38)
	src := tracestore.NewSliceSource(8, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)

	for _, sw := range []struct {
		first, second int
		stages        int // completed phases before the simulated crash
	}{
		{first: 8, second: 1, stages: 2},
		{first: 1, second: 8, stages: 2},
		{first: 3, second: 2, stages: 4},
	} {
		store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
		cfg := Config{Workers: sw.first}
		_, _, err := AttackFFTfResumable(src, cfg, &failingStore{inner: store, remaining: sw.stages})
		if !errors.Is(err, errKilled) {
			t.Fatalf("W=%d→%d: interrupted run returned %v, want simulated crash", sw.first, sw.second, err)
		}

		cfg.Workers = sw.second
		out, vals, err := AttackFFTfResumable(src, cfg, store)
		if err != nil {
			t.Fatalf("W=%d→%d: resume: %v", sw.first, sw.second, err)
		}
		sidecar, err := os.ReadFile(store.Path)
		if err != nil {
			t.Fatal(err)
		}
		sameAttackOutput(t, fmt.Sprintf("resume W=%d→%d", sw.first, sw.second),
			refOut, refVals, refSidecar, out, vals, sidecar)
	}
}

// useReferenceFold routes every job through the per-trace reference
// (observe into a zero-state clone, then merge) instead of its fused
// kernel until the test ends, or back to the fused kernels when on is
// false.
func useReferenceFold(t *testing.T, on bool) {
	t.Helper()
	prev := referenceFold
	referenceFold = on
	t.Cleanup(func() { referenceFold = prev })
}

// foldName labels a run by the accumulation path it took.
func foldName(reference bool) string {
	if reference {
		return "reference"
	}
	return "fused"
}

func TestDifferentialKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	// The fused kernels must reproduce the per-trace reference path byte
	// for byte: keys, reports and sidecars, at every worker count. The
	// reference is the serial run with every job on observe + merge.
	dev, _, _ := deviceFor(t, 8, 2.0, 41)
	obs := collect(t, dev, 400, 42)
	src := tracestore.NewSliceSource(8, obs)

	useReferenceFold(t, true)
	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)
	for _, ref := range []bool{false, true} {
		useReferenceFold(t, ref)
		for _, w := range []int{1, 2, 8} {
			out, vals, sidecar := runAttackAt(t, src, Config{}, w)
			sameAttackOutput(t, fmt.Sprintf("%s workers=%d", foldName(ref), w),
				refOut, refVals, refSidecar, out, vals, sidecar)
		}
	}
}

func TestDifferentialRobustKernelsBitIdentical(t *testing.T) {
	// The dirty-corpus attack (robust preprocessing ahead of every pass)
	// on the fused kernels against the serial per-trace reference.
	if testing.Short() {
		t.Skip("robust kernel differential covered by the full suite")
	}
	dev, _, _ := deviceFor(t, 8, 1.5, 43)
	obs := dirtyCorpus(t, dev, 500)
	src := tracestore.NewSliceSource(8, obs)
	cfg := Config{Robust: RobustConfig{TrimSigmas: 4, ResyncShift: 2, Winsorize: 4}}

	useReferenceFold(t, true)
	refOut, refVals, refSidecar := runAttackAt(t, src, cfg, 1)
	useReferenceFold(t, false)
	for _, w := range []int{1, 8} {
		out, vals, sidecar := runAttackAt(t, src, cfg, w)
		sameAttackOutput(t, fmt.Sprintf("robust fused workers=%d", w),
			refOut, refVals, refSidecar, out, vals, sidecar)
	}
}

func TestDifferentialResumeSwitchesKernels(t *testing.T) {
	// A campaign checkpointed on one accumulation path must resume on the
	// other and still land bit-identical to the uninterrupted serial
	// reference run.
	dev, _, _ := deviceFor(t, 8, 2.0, 45)
	obs := collect(t, dev, 400, 46)
	src := tracestore.NewSliceSource(8, obs)

	useReferenceFold(t, true)
	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)

	for _, sw := range []struct {
		first, second bool // reference path?
		stages        int
	}{
		{first: true, second: false, stages: 2},
		{first: false, second: true, stages: 4},
	} {
		label := fmt.Sprintf("resume %s→%s", foldName(sw.first), foldName(sw.second))
		store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
		cfg := Config{Workers: 2}
		useReferenceFold(t, sw.first)
		_, _, err := AttackFFTfResumable(src, cfg, &failingStore{inner: store, remaining: sw.stages})
		if !errors.Is(err, errKilled) {
			t.Fatalf("%s: interrupted run returned %v, want simulated crash", label, err)
		}

		useReferenceFold(t, sw.second)
		out, vals, err := AttackFFTfResumable(src, cfg, store)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sidecar, err := os.ReadFile(store.Path)
		if err != nil {
			t.Fatal(err)
		}
		sameAttackOutput(t, label, refOut, refVals, refSidecar, out, vals, sidecar)
	}
}

func TestParallelMapIndexesMatchSerial(t *testing.T) {
	// parallelMap keys results by corpus index, so any worker count
	// reproduces the serial pass exactly.
	dev, _, _ := deviceFor(t, 8, 2.0, 39)
	obs := collect(t, dev, 200, 40)
	src := tracestore.NewSliceSource(8, obs)
	ref := make([]float64, len(obs))
	if err := parallelMap(src, 1, func(idx int, o emleak.Observation) {
		ref[idx] = o.Trace.Samples[0]
	}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 8} {
		got := make([]float64, len(obs))
		if err := parallelMap(src, w, func(idx int, o emleak.Observation) {
			got[idx] = o.Trace.Samples[0]
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("workers=%d: parallelMap results differ", w)
		}
	}
}
