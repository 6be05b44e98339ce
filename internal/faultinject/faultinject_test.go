package faultinject

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"falcondown/internal/core"
	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// victim builds the standard n=8 fixture: keygen seed 41, device seed 42.
func victim(t *testing.T, noise float64) (*emleak.Device, *falcon.PrivateKey, *falcon.PublicKey) {
	t.Helper()
	priv, pub, err := falcon.GenerateKey(8, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: noise}, 42)
	return dev, priv, pub
}

func collect(t *testing.T, dev *emleak.Device, count int) []emleak.Observation {
	t.Helper()
	obs, err := emleak.NewCampaign(dev, 43).Collect(count)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// TestQuarantinedChunkFullRecovery is the headline degradation gate: a
// corpus with an injected bad chunk fails a strict open, but a lenient
// open quarantines exactly the damaged chunk, reports it, and the attack
// completes a full key recovery on what survives.
func TestQuarantinedChunkFullRecovery(t *testing.T) {
	dev, _, pub := victim(t, 1.5)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	w, err := tracestore.NewWriter(path, 8, tracestore.Options{ChunkObs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := tracestore.Acquire(context.Background(), dev, 43, 1200, w, tracestore.AcquireOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt one byte mid-file: with 24 data chunks dominating the shard
	// this lands inside exactly one chunk region (payload or header), and
	// either way exactly that chunk must be quarantined.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, st.Size()/2, 0x40); err != nil {
		t.Fatal(err)
	}

	// Strict mode must detect the damage no later than the first sweep,
	// with a typed error.
	if strict, err := tracestore.Open(path); err == nil {
		it, err := strict.Iterate()
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			_, err = it.Next()
		}
		it.Close()
		if !errors.Is(err, tracestore.ErrChecksum) && !errors.Is(err, tracestore.ErrBadFormat) {
			t.Fatalf("strict iteration over a corrupted corpus: %v", err)
		}
	} else if !errors.Is(err, tracestore.ErrChecksum) && !errors.Is(err, tracestore.ErrBadFormat) {
		t.Fatalf("strict open failed with an untyped error: %v", err)
	}

	corpus, health, err := tracestore.OpenLenient(path)
	if err != nil {
		t.Fatal(err)
	}
	if !health.Degraded() || len(health.Quarantined) != 1 {
		t.Fatalf("health = %+v, want exactly one quarantined chunk", health)
	}
	if health.Lost != 50 || health.Healthy != 1150 || corpus.Count() != 1150 {
		t.Fatalf("lost %d healthy %d count %d, want 50/1150/1150",
			health.Lost, health.Healthy, corpus.Count())
	}
	q := health.Quarantined[0]
	if q.Shard != path || q.Observations != 50 || q.Reason == "" {
		t.Fatalf("quarantine record incomplete: %+v", q)
	}

	priv, report, err := core.RecoverKeyFrom(corpus, pub, core.Config{})
	if err != nil {
		t.Fatalf("recovery on the degraded corpus failed: %v", err)
	}
	if len(report.Values) != 8 {
		t.Fatalf("recovered %d values, want 8", len(report.Values))
	}
	// The break must be demonstrable: forge a signature the victim's
	// public key accepts.
	msg := []byte("forged over a damaged corpus")
	sig, err := priv.Sign(msg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("forged signature rejected: %v", err)
	}
}

// TestTransientFaultsRetriedMidAttack proves the sweep retry: a source
// that periodically throws transient I/O errors yields the same attack
// results, bit-for-bit, as a clean one. One worker walks the corpus on
// the attack's goroutine and two walk it on the prefetch reader, so both
// consumers of the shared walker run.
func TestTransientFaultsRetriedMidAttack(t *testing.T) {
	dev, _, _ := victim(t, 2.0)
	obs := collect(t, dev, 400)
	clean := tracestore.NewSliceSource(8, obs)

	wantFFT, wantVals, err := core.AttackFFTfFrom(clean, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			flaky := NewSource(tracestore.NewSliceSource(8, obs), 151, 0)
			gotFFT, gotVals, err := core.AttackFFTfFrom(flaky, core.Config{Workers: workers})
			if err != nil {
				t.Fatalf("attack over a transiently failing source: %v", err)
			}
			for k := range wantFFT {
				if wantFFT[k] != gotFFT[k] {
					t.Fatalf("coefficient %d differs under transient faults", k)
				}
			}
			for v := range wantVals {
				if wantVals[v].Value != gotVals[v].Value || wantVals[v].PruneCorr != gotVals[v].PruneCorr {
					t.Fatalf("value %d differs under transient faults", v)
				}
			}
		})
	}
}

// TestPersistentTransientsGiveUp: when every read faults, the bounded
// backoff must exhaust and surface a typed error instead of spinning, on
// either consumer of the shared walker.
func TestPersistentTransientsGiveUp(t *testing.T) {
	dev, _, _ := victim(t, 2.0)
	obs := collect(t, dev, 50)
	for _, workers := range []int{1, 2} {
		src := NewSource(tracestore.NewSliceSource(8, obs), 1, 0) // all calls fault, forever
		_, _, err := core.AttackFFTfFrom(src, core.Config{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: attack succeeded over a source that never delivers", workers)
		}
		if !errors.Is(err, tracestore.ErrTransient) {
			t.Fatalf("workers=%d: got %v, want a tracestore.ErrTransient chain", workers, err)
		}
	}
}

// TestUnrecoverableValuesDiagnosed is the partial-report gate: a campaign
// too noisy to establish the key must fail with a RecoveryReport naming
// which values failed and why, not a bare error.
func TestUnrecoverableValuesDiagnosed(t *testing.T) {
	dev, _, pub := victim(t, 40)
	obs := collect(t, dev, 240)
	_, report, err := core.RecoverKey(obs, pub, core.Config{})
	if err == nil {
		t.Fatal("recovery succeeded on hopeless noise")
	}
	if !errors.Is(err, core.ErrImplausibleKey) {
		t.Fatalf("got %v, want an ErrImplausibleKey chain", err)
	}
	if report == nil || len(report.Failed) == 0 {
		t.Fatalf("failure carries no per-value diagnosis: report=%+v", report)
	}
	for _, f := range report.Failed {
		if f.Index != 2*f.Coeff+int(f.Part) {
			t.Fatalf("inconsistent failure coordinates: %+v", f)
		}
		if f.Reason == "" || f.String() == "" {
			t.Fatalf("failure without a reason: %+v", f)
		}
	}
}

// TestAutoRecoverGrowsTraceBudget: a campaign too small on the first
// attempt must be grown (reusing every earlier measurement) until the key
// comes out.
func TestAutoRecoverGrowsTraceBudget(t *testing.T) {
	dev, _, pub := victim(t, 6)
	var sizes []int
	var errs []error
	priv, report, err := core.AutoRecover(dev, 43, pub, core.Config{}, core.AutoOptions{
		InitialTraces: 240,
		MaxTraces:     480,
		OnAttempt: func(traces int, aerr error) {
			sizes = append(sizes, traces)
			errs = append(errs, aerr)
		},
	})
	if err != nil {
		t.Fatalf("auto recovery failed: %v", err)
	}
	if len(sizes) < 2 {
		t.Fatalf("succeeded in %d attempt(s); fixture was meant to force budget growth (sizes %v)", len(sizes), sizes)
	}
	if errs[0] == nil {
		t.Fatal("first undersized attempt reported success")
	}
	if errs[len(errs)-1] != nil {
		t.Fatalf("final attempt reported %v after overall success", errs[len(errs)-1])
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] <= sizes[i-1] {
			t.Fatalf("campaign did not grow between attempts: %v", sizes)
		}
	}
	msg := []byte("forged adaptively")
	sig, err := priv.Sign(msg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(msg, sig); err != nil {
		t.Fatalf("forged signature rejected: %v", err)
	}
	if len(report.Values) != 8 {
		t.Fatalf("report carries %d values, want 8", len(report.Values))
	}
}

// TestAutoRecoverBudgetExhaustion: when the trace budget runs out the
// error must say so and the partial report must diagnose the failures.
func TestAutoRecoverBudgetExhaustion(t *testing.T) {
	dev, _, pub := victim(t, 6)
	var sizes []int
	_, report, err := core.AutoRecover(dev, 43, pub, core.Config{}, core.AutoOptions{
		InitialTraces: 60,
		MaxTraces:     120,
		OnAttempt:     func(traces int, aerr error) { sizes = append(sizes, traces) },
	})
	if err == nil {
		t.Fatal("recovery succeeded inside a budget chosen to be insufficient")
	}
	if !strings.Contains(err.Error(), "budget") {
		t.Fatalf("exhaustion error does not mention the budget: %v", err)
	}
	if !errors.Is(err, core.ErrImplausibleKey) {
		t.Fatalf("exhaustion error does not chain the last attempt's cause: %v", err)
	}
	if report == nil || len(report.Failed) == 0 {
		t.Fatal("budget exhaustion without a per-value diagnosis")
	}
	if len(sizes) != 2 || sizes[0] != 60 || sizes[1] != 120 {
		t.Fatalf("attempt sizes %v, want [60 120]", sizes)
	}
}

// TestDeviceFaultSchedule: the corrupting device wrapper is deterministic
// in (seed, index) and its knobs do what they say.
func TestDeviceFaultSchedule(t *testing.T) {
	dev, _, _ := victim(t, 1.5)

	clean, err := emleak.ObservationAt(dev, 43, 5)
	if err != nil {
		t.Fatal(err)
	}

	// No fault probability: transparent wrapper.
	quiet := NewDevice(dev, 7, 0, 0)
	if quiet.N() != dev.N() {
		t.Fatalf("N() = %d, want %d", quiet.N(), dev.N())
	}
	o, err := quiet.ObservationAt(43, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean.Trace.Samples {
		if o.Trace.Samples[i] != clean.Trace.Samples[i] {
			t.Fatal("zero-probability wrapper altered a sample")
		}
	}

	// Certain flip: exactly one sample negated, same one every time.
	flipper := NewDevice(dev, 7, 1, 0)
	a, err := flipper.ObservationAt(43, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flipper.ObservationAt(43, 5)
	if err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for i := range clean.Trace.Samples {
		if a.Trace.Samples[i] != clean.Trace.Samples[i] {
			diffs++
			if a.Trace.Samples[i] != -clean.Trace.Samples[i] {
				t.Fatalf("sample %d was altered, not negated", i)
			}
		}
		if a.Trace.Samples[i] != b.Trace.Samples[i] {
			t.Fatalf("fault schedule not deterministic at sample %d", i)
		}
	}
	if diffs != 1 {
		t.Fatalf("%d samples flipped, want exactly 1", diffs)
	}

	// Certain error: the measurement fails.
	if _, err := NewDevice(dev, 7, 0, 1).ObservationAt(43, 5); err == nil {
		t.Fatal("ErrProb=1 wrapper returned a measurement")
	}
}

// collectAppender records appends for the Appender wrapper test.
type collectAppender struct{ got int }

func (c *collectAppender) Append(emleak.Observation) error {
	c.got++
	return nil
}

func TestAppenderFailSchedule(t *testing.T) {
	inner := &collectAppender{}
	boom := errors.New("injected write failure")
	app := NewAppender(inner, 2, boom)
	for i := 0; i < 4; i++ {
		err := app.Append(emleak.Observation{})
		if i == 2 {
			if !errors.Is(err, boom) {
				t.Fatalf("append %d: got %v, want the injected failure", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if app.Appended() != 4 {
		t.Fatalf("Appended() = %d, want 4", app.Appended())
	}
	if inner.got != 3 {
		t.Fatalf("inner received %d appends, want 3 (one was injected away)", inner.got)
	}
}

func TestAtRestCorruptionHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "blob")
	if err := os.WriteFile(path, []byte("abcdefgh"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := FlipBit(path, 3, 0x20); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != "abcDefgh" {
		t.Fatalf("after flip: %q", raw)
	}
	// XOR is its own inverse.
	if err := FlipBit(path, 3, 0x20); err != nil {
		t.Fatal(err)
	}
	if raw, _ = os.ReadFile(path); string(raw) != "abcdefgh" {
		t.Fatalf("after unflip: %q", raw)
	}
	if err := TruncateTail(path, 5); err != nil {
		t.Fatal(err)
	}
	if raw, _ = os.ReadFile(path); string(raw) != "abc" {
		t.Fatalf("after truncate: %q", raw)
	}
	// Overshoot clamps to empty rather than failing.
	if err := TruncateTail(path, 99); err != nil {
		t.Fatal(err)
	}
	if st, _ := os.Stat(path); st.Size() != 0 {
		t.Fatalf("overshoot truncate left %d bytes", st.Size())
	}
}
