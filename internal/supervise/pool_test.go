package supervise

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/faultinject"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// sliceAppender collects committed observations in order.
type sliceAppender struct {
	obs []emleak.Observation
}

func (a *sliceAppender) Append(o emleak.Observation) error {
	a.obs = append(a.obs, o)
	return nil
}

func poolVictim(t *testing.T, noise float64) *emleak.Device {
	t.Helper()
	priv, _, err := falcon.GenerateKey(8, rng.New(1))
	if err != nil {
		t.Fatalf("keygen: %v", err)
	}
	return emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{}, emleak.Probe{Gain: 1, NoiseSigma: noise}, 2)
}

// reference is the single-device tracestore.Acquire corpus the pool must
// reproduce byte-for-byte.
func reference(t *testing.T, dev *emleak.Device, seed uint64, count int) []emleak.Observation {
	t.Helper()
	var w sliceAppender
	if err := tracestore.Acquire(context.Background(), dev, seed, count, &w, tracestore.AcquireOptions{Workers: 4}); err != nil {
		t.Fatalf("reference acquire: %v", err)
	}
	return w.obs
}

func TestAcquirePoolMatchesAcquire(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 5, 64)

	devices := []Device{NewIdeal(dev), NewIdeal(dev), NewIdeal(dev)}
	var w sliceAppender
	report, err := AcquirePool(context.Background(), devices, 5, 64, &w, PoolOptions{
		Workers: 5,
		Clock:   faultinject.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("pool corpus differs from single-device Acquire corpus")
	}
	if report.Retried != 0 || report.Hedged != 0 {
		t.Fatalf("ideal pool reported retries/hedges: %+v", report)
	}
	for _, b := range report.Breakers {
		if b.State != StateClosed || b.Failures != 0 {
			t.Fatalf("ideal pool breaker: %+v", b)
		}
	}
	if report.Health.Healthy != 64 {
		t.Fatalf("Healthy = %d, want 64", report.Health.Healthy)
	}
}

func TestAcquirePoolResumeSplit(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 5, 50)
	devices := []Device{NewIdeal(dev), NewIdeal(dev)}

	var w sliceAppender
	if _, err := AcquirePool(context.Background(), devices, 5, 37, &w, PoolOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	// A fresh pool (new breakers, new clock) resumes from observation 37.
	if _, err := AcquirePool(context.Background(), devices, 5, 50, &w, PoolOptions{Workers: 2, Start: 37}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("resumed pool corpus differs from uninterrupted corpus")
	}
}

func TestAcquirePoolTransientRetry(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 9, 12)
	clock := faultinject.NewVirtualClock()
	boom := errors.New("transient capture fault")
	sd := faultinject.NewScriptedDevice(dev, clock).On(2, faultinject.Step{Err: boom})

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{sd}, 9, 12, &w, PoolOptions{
		Workers: 1,
		Backoff: 10 * time.Millisecond,
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("retried corpus differs from reference")
	}
	if report.Retried != 1 {
		t.Fatalf("Retried = %d, want 1", report.Retried)
	}
	b := report.Breakers[0]
	if b.State != StateClosed || b.Failures != 1 || b.Successes != 12 {
		t.Fatalf("breaker after transient: %+v", b)
	}
}

// A device that errors on every observation it is primary for: the ring
// fails over to the healthy device, the dead device's breaker opens, and
// the corpus is still byte-identical to the reference.
func TestAcquirePoolFailoverOpensBreaker(t *testing.T) {
	dev := poolVictim(t, 1.0)
	const count = 40
	want := reference(t, dev, 13, count)
	clock := faultinject.NewVirtualClock()
	boom := errors.New("dead channel")
	sd := faultinject.NewScriptedDevice(dev, clock)
	for i := 0; i < count; i += 2 { // dev0 is primary for even indices
		sd.On(uint64(i), faultinject.Step{Err: boom})
	}

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{sd, NewIdeal(dev)}, 13, count, &w, PoolOptions{
		Workers: 2,
		Backoff: 5 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 3, OpenFor: time.Hour},
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("failover corpus differs from reference")
	}
	b := report.Breakers[0]
	if b.State != StateOpen {
		t.Fatalf("dead device breaker = %s, want open", b.State)
	}
	if b.Skips == 0 {
		t.Fatal("open breaker was never consulted (no skips recorded)")
	}
	if report.Retried == 0 {
		t.Fatal("failover happened without retries being counted")
	}
}

// After OpenFor elapses (driven entirely by virtual-clock backoff sleeps)
// the breaker goes half-open, the probe succeeds, and the breaker closes:
// a single-device pool survives a burst of three consecutive failures.
func TestAcquirePoolBreakerProbesAndRecovers(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 21, 6)
	clock := faultinject.NewVirtualClock()
	boom := errors.New("wedged")
	sd := faultinject.NewScriptedDevice(dev, clock).
		On(0, faultinject.Step{Err: boom}, faultinject.Step{Err: boom}, faultinject.Step{Err: boom})

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{sd}, 21, 6, &w, PoolOptions{
		Workers: 1,
		Retries: 6,
		Backoff: 30 * time.Millisecond, // third backoff is 120ms >= OpenFor
		Breaker: BreakerConfig{Threshold: 3, OpenFor: 100 * time.Millisecond, Probes: 1},
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("recovered corpus differs from reference")
	}
	b := report.Breakers[0]
	if b.State != StateClosed {
		t.Fatalf("breaker = %s, want closed after successful probe", b.State)
	}
	if b.Failures != 3 {
		t.Fatalf("Failures = %d, want 3", b.Failures)
	}
	if report.Retried != 3 {
		t.Fatalf("Retried = %d, want 3 (two retries + one probe)", report.Retried)
	}
}

// A hanging primary is rescued by the hedge: the duplicate measurement on
// the next device delivers the observation, the hang is cancelled at the
// deadline and recorded as the primary's failure.
func TestAcquirePoolHedgeRescuesHang(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 17, 4)
	clock := faultinject.NewVirtualClock()
	sd := faultinject.NewScriptedDevice(dev, clock).On(0, faultinject.Step{Hang: true})

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{sd, NewIdeal(dev)}, 17, 4, &w, PoolOptions{
		Workers: 1,
		Timeout: 2 * time.Second,
		Hedge:   500 * time.Millisecond,
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("hedged corpus differs from reference")
	}
	if report.Hedged != 1 {
		t.Fatalf("Hedged = %d, want 1", report.Hedged)
	}
	if b := report.Breakers[0]; b.Failures != 1 {
		t.Fatalf("hung primary failures = %d, want 1 (cancelled at the deadline)", b.Failures)
	}
}

func TestAcquirePoolContextCancel(t *testing.T) {
	dev := poolVictim(t, 1.0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var w sliceAppender
	_, err := AcquirePool(ctx, []Device{NewIdeal(dev)}, 1, 100, &w, PoolOptions{Workers: 2})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(w.obs) != 0 {
		t.Fatalf("%d observations committed under a cancelled context", len(w.obs))
	}
}

// The gate flags glitched (saturated) and desynced traces from a flaky
// device at write time; everything is still written, and the flags line up
// with tracestore's masking.
func TestAcquirePoolGateFlagsDirtyTraces(t *testing.T) {
	dev := poolVictim(t, 1.5)
	const count = 300
	fl := emleak.NewFlakyDevice(dev, emleak.Distortion{
		Seed:        77,
		GlitchProb:  0.05,
		DesyncProb:  0.05,
		DesyncShift: 2,
	}, nil)

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{fl}, 3, count, &w, PoolOptions{
		Workers: 3,
		Gate: GateConfig{
			SatLevel:    500, // glitches rail at ±1000
			DesyncShift: 2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.obs) != count {
		t.Fatalf("committed %d of %d observations (suspects must still be written)", len(w.obs), count)
	}
	ns := len(report.Health.Suspect)
	if ns == 0 {
		t.Fatal("gate flagged nothing on a 10% dirty corpus")
	}
	if ns > count/2 {
		t.Fatalf("gate flagged %d of %d observations — detectors are firing on clean traces", ns, count)
	}
	if !report.Health.Degraded() {
		t.Fatal("suspect verdicts must mark the corpus degraded")
	}
	// Verdicts are deterministic: a second run flags the same indices.
	var w2 sliceAppender
	report2, err := AcquirePool(context.Background(), []Device{fl}, 3, count, &w2, PoolOptions{
		Workers: 1,
		Gate:    GateConfig{SatLevel: 500, DesyncShift: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(report.Health.Suspect, report2.Health.Suspect) {
		t.Fatal("gate verdicts depend on worker count")
	}
	// The flagged indices mask cleanly out of the committed corpus.
	skip := make([]int, 0, ns)
	for _, f := range report.Health.Suspect {
		skip = append(skip, f.Index)
	}
	masked := tracestore.NewMaskedSource(tracestore.NewSliceSource(8, w.obs), skip)
	if masked.Count() != count-ns {
		t.Fatalf("masked count = %d, want %d", masked.Count(), count-ns)
	}
}

func TestAcquirePoolValidation(t *testing.T) {
	dev := poolVictim(t, 1.0)
	var w sliceAppender
	if _, err := AcquirePool(context.Background(), nil, 1, 10, &w, PoolOptions{}); err == nil {
		t.Fatal("empty pool accepted")
	}
	if _, err := AcquirePool(context.Background(), []Device{NewIdeal(dev)}, 1, -1, &w, PoolOptions{}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := AcquirePool(context.Background(), []Device{NewIdeal(dev)}, 1, 10, &w, PoolOptions{Start: -1}); err == nil {
		t.Fatal("negative start accepted")
	}
}

func TestAcquirePoolLowestIndexParkedUntilWindowFull(t *testing.T) {
	// Hold the worker that claimed the first index until every
	// reorder-window slot is taken. A worker that claims its index before
	// taking a slot then waits forever for a slot only its own index
	// could free.
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 5, 40)
	devices := []Device{NewIdeal(dev), NewIdeal(dev)}
	var w sliceAppender
	_, err := AcquirePool(context.Background(), devices, 5, 40, &w, PoolOptions{
		Workers: 3,
		Clock:   faultinject.NewVirtualClock(),
		afterClaim: func(idx int, windowFull func() bool) {
			if idx != 0 {
				return
			}
			for !windowFull() {
				time.Sleep(50 * time.Microsecond)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("pool corpus differs from single-device Acquire corpus")
	}
}
