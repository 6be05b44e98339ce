package supervise

import (
	"testing"
	"time"
)

// The state machine is tested directly with explicit timestamps — no
// clock, no goroutines — so every transition is pinned.

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, OpenFor: time.Minute, Probes: 1})
	t0 := time.Unix(0, 0)

	for i := 0; i < 2; i++ {
		if !b.Allow(t0) {
			t.Fatalf("closed breaker rejected attempt %d", i)
		}
		b.Record(false, t0)
	}
	if st := b.Status(0); st.State != StateClosed {
		t.Fatalf("state after 2 failures = %s, want closed", st.State)
	}
	b.Record(false, t0)
	if st := b.Status(0); st.State != StateOpen {
		t.Fatalf("state after 3 failures = %s, want open", st.State)
	}
	if b.Allow(t0.Add(30 * time.Second)) {
		t.Fatal("open breaker admitted an attempt before OpenFor elapsed")
	}
	if st := b.Status(0); st.Skips != 1 {
		t.Fatalf("Skips = %d, want 1", st.Skips)
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 3, OpenFor: time.Minute})
	t0 := time.Unix(0, 0)
	b.Record(false, t0)
	b.Record(false, t0)
	b.Record(true, t0) // streak broken
	b.Record(false, t0)
	b.Record(false, t0)
	if st := b.Status(0); st.State != StateClosed {
		t.Fatalf("state = %s, want closed (failures are not consecutive)", st.State)
	}
	b.Record(false, t0)
	if st := b.Status(0); st.State != StateOpen {
		t.Fatalf("state = %s, want open after 3 consecutive failures", st.State)
	}
}

func TestBreakerHalfOpenProbeCycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, OpenFor: time.Minute, Probes: 2})
	t0 := time.Unix(0, 0)
	b.Record(false, t0) // opens
	if st := b.Status(0); st.State != StateOpen {
		t.Fatalf("state = %s, want open", st.State)
	}

	// OpenFor elapsed: half-open admits exactly Probes attempts.
	t1 := t0.Add(time.Minute)
	if !b.Allow(t1) {
		t.Fatal("half-open transition rejected the first probe")
	}
	if st := b.Status(0); st.State != StateHalfOpen {
		t.Fatalf("state = %s, want half-open", st.State)
	}
	if !b.Allow(t1) {
		t.Fatal("second probe rejected with Probes=2")
	}
	if b.Allow(t1) {
		t.Fatal("third attempt admitted beyond the probe budget")
	}

	// All probes succeed: closed again, streak reset.
	b.Record(true, t1)
	if st := b.Status(0); st.State != StateHalfOpen {
		t.Fatalf("state = %s, want half-open until every probe reports", st.State)
	}
	b.Record(true, t1)
	if st := b.Status(0); st.State != StateClosed {
		t.Fatalf("state = %s, want closed after all probes succeed", st.State)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 1, OpenFor: time.Minute, Probes: 2})
	t0 := time.Unix(0, 0)
	b.Record(false, t0) // opens
	t1 := t0.Add(time.Minute)
	if !b.Allow(t1) {
		t.Fatal("probe rejected")
	}
	b.Record(false, t1) // failed probe: reopen for a fresh OpenFor
	if st := b.Status(0); st.State != StateOpen {
		t.Fatalf("state = %s, want open after a failed probe", st.State)
	}
	if b.Allow(t1.Add(30 * time.Second)) {
		t.Fatal("reopened breaker admitted an attempt before the fresh OpenFor elapsed")
	}
	if !b.Allow(t1.Add(time.Minute)) {
		t.Fatal("reopened breaker never re-admitted probes")
	}
}

func TestBreakerDefaults(t *testing.T) {
	cfg := BreakerConfig{}.withDefaults()
	if cfg.Threshold != 5 || cfg.OpenFor != 30*time.Second || cfg.Probes != 1 {
		t.Fatalf("defaults = %+v", cfg)
	}
}
