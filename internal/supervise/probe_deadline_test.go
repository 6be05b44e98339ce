package supervise

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"falcondown/internal/faultinject"
)

// Half-open probe behavior when the probe itself hits the per-observation
// deadline. Previously this path was covered only indirectly through the
// e2e pool test; these tests pin it at both the state-machine and the
// pool level.

func TestBreakerProbeDeadlineTimeout(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, OpenFor: time.Minute, Probes: 1})
	t0 := time.Unix(0, 0)
	b.Record(false, t0) // opens

	// OpenFor elapses: the half-open transition admits exactly one probe.
	t1 := t0.Add(time.Minute)
	if !b.Allow(t1) {
		t.Fatal("half-open transition rejected the probe")
	}

	// While the probe hangs toward its deadline, no other attempt may leak
	// through — a wedged probe must not reopen the floodgates.
	if b.Allow(t1.Add(10 * time.Second)) {
		t.Fatal("attempt admitted while the only probe was still in flight")
	}
	if st := b.Status(0); st.State != StateHalfOpen {
		t.Fatalf("state = %s, want half-open while the probe is in flight", st.State)
	}

	// The probe is cancelled at its per-observation deadline and recorded
	// as a failure *at that time*: the breaker reopens with a fresh OpenFor
	// anchored at the timeout, not at the probe's launch.
	t2 := t1.Add(30 * time.Second)
	b.Record(false, t2)
	if st := b.Status(0); st.State != StateOpen {
		t.Fatalf("state = %s, want open after the probe timed out", st.State)
	}
	if b.Allow(t2.Add(time.Minute - time.Second)) {
		t.Fatal("attempt admitted before the fresh OpenFor (anchored at the timeout) elapsed")
	}
	if !b.Allow(t2.Add(time.Minute)) {
		t.Fatal("breaker never re-admitted probes after the timed-out probe's fresh OpenFor")
	}
}

func TestExportedBreakerMirrorsInternal(t *testing.T) {
	// The breaker the cluster coordinator runs per worker node, driven
	// through the same exported methods the pool calls.
	b := NewBreaker(BreakerConfig{Threshold: 2, OpenFor: time.Minute, Probes: 1})
	t0 := time.Unix(0, 0)
	if !b.Allow(t0) {
		t.Fatal("closed breaker rejected an attempt")
	}
	b.Record(false, t0)
	b.Record(false, t0)
	if st := b.Status(7); st.State != StateOpen || st.Device != 7 {
		t.Fatalf("status = %+v, want open on device 7", st)
	}
	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("open breaker admitted an attempt")
	}
	if !b.Allow(t0.Add(time.Minute)) {
		t.Fatal("breaker never went half-open")
	}
	b.Record(true, t0.Add(time.Minute))
	if st := b.Status(7); st.State != StateClosed {
		t.Fatalf("state = %s, want closed after a clean probe", st.State)
	}
	if st := b.Status(7); st.Successes != 1 || st.Failures != 2 || st.Skips != 1 {
		t.Fatalf("counters = %+v, want 1 success / 2 failures / 1 skip", st)
	}
}

// A single-device pool whose breaker probe hangs at the per-observation
// deadline: the probe failure reopens the breaker for a fresh OpenFor,
// the next probe succeeds, and the corpus still lands byte-identical to
// the reference — entirely on the virtual clock, no wall-clock sleeps.
func TestAcquirePoolProbeDeadlineReopens(t *testing.T) {
	dev := poolVictim(t, 1.0)
	want := reference(t, dev, 23, 6)
	clock := faultinject.NewVirtualClock()
	boom := errors.New("dead channel")
	sd := faultinject.NewScriptedDevice(dev, clock).
		On(0,
			faultinject.Step{Err: boom}, faultinject.Step{Err: boom}, faultinject.Step{Err: boom}, // opens
			faultinject.Step{Hang: true}) // the probe itself hits the deadline

	var w sliceAppender
	report, err := AcquirePool(context.Background(), []Device{sd}, 23, 6, &w, PoolOptions{
		Workers: 1,
		Retries: 10,
		Timeout: 50 * time.Millisecond,
		Backoff: 30 * time.Millisecond,
		Breaker: BreakerConfig{Threshold: 3, OpenFor: 100 * time.Millisecond, Probes: 1},
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.obs, want) {
		t.Fatal("corpus differs from reference after probe-deadline recovery")
	}
	b := report.Breakers[0]
	if b.State != StateClosed {
		t.Fatalf("breaker = %s, want closed after the post-timeout probe succeeded", b.State)
	}
	if b.Failures != 4 {
		t.Fatalf("Failures = %d, want 4 (three errors + the timed-out probe)", b.Failures)
	}
}
