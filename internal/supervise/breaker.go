package supervise

import (
	"sync"
	"time"
)

// Per-device circuit breaker. A wedged capture device must not keep
// eating per-observation timeouts: after Threshold consecutive failures
// the breaker opens and the router skips the device instantly (failing
// over to the next one in the ring); after OpenFor it admits a bounded
// number of probe measurements, closing again only when they all
// succeed.

// BreakerConfig tunes the per-device circuit breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (default 5).
	Threshold int
	// OpenFor is how long an open breaker rejects attempts before
	// admitting probes (default 30s).
	OpenFor time.Duration
	// Probes is how many trial measurements the half-open state admits;
	// all must succeed to close the breaker (default 1).
	Probes int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = 5
	}
	if c.OpenFor <= 0 {
		c.OpenFor = 30 * time.Second
	}
	if c.Probes <= 0 {
		c.Probes = 1
	}
	return c
}

// Breaker states as reported in BreakerStatus.
const (
	StateClosed   = "closed"
	StateOpen     = "open"
	StateHalfOpen = "half-open"
)

type breakerState int

const (
	stClosed breakerState = iota
	stOpen
	stHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case stOpen:
		return StateOpen
	case stHalfOpen:
		return StateHalfOpen
	}
	return StateClosed
}

// Breaker is the closed/open/half-open state machine for one failure
// domain: a capture device in the pool, a worker node in the cluster
// coordinator ("a straggler node is just a flaky device one level up").
// Threshold consecutive failures open it, OpenFor later it admits Probes
// trial attempts, and only a clean probe run closes it again. Time is
// injected so callers on a virtual clock stay deterministic.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state    breakerState
	failures int // consecutive failures while closed
	openedAt time.Time
	probing  int // probe attempts in flight while half-open
	probeOK  int // probe successes so far

	// Lifetime counters for the report.
	successes, failed, skips int
}

// NewBreaker builds a closed breaker with the given configuration (zero
// fields take the documented defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Allow reports whether an attempt may be routed to this target now,
// transitioning open→half-open once OpenFor has elapsed. A false return
// is a skip (counted for the report).
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case stClosed:
		return true
	case stOpen:
		if now.Sub(b.openedAt) < b.cfg.OpenFor {
			b.skips++
			return false
		}
		b.state = stHalfOpen
		b.probing = 1
		b.probeOK = 0
		mBreakerToHalfOpen.Inc()
		return true
	default: // half-open
		if b.probing < b.cfg.Probes {
			b.probing++
			return true
		}
		b.skips++
		return false
	}
}

// Record folds in the outcome of one attempt on this target.
func (b *Breaker) Record(ok bool, now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		b.successes++
	} else {
		b.failed++
	}
	switch b.state {
	case stClosed:
		if ok {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.cfg.Threshold {
			b.state = stOpen
			b.openedAt = now
			mBreakerToOpen.Inc()
		}
	case stHalfOpen:
		if b.probing > 0 {
			b.probing--
		}
		if !ok {
			// A failed probe reopens the breaker for a fresh OpenFor.
			b.state = stOpen
			b.openedAt = now
			b.probeOK = 0
			mBreakerToOpen.Inc()
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.Probes {
			b.state = stClosed
			b.failures = 0
			mBreakerToClosed.Inc()
		}
	case stOpen:
		// A stale record from an attempt dispatched before the breaker
		// opened; the state machine ignores it.
	}
}

// BreakerStatus is the reported state of one device's breaker.
type BreakerStatus struct {
	Device    int
	State     string // closed | open | half-open
	Successes int    // measurements that returned an observation
	Failures  int    // measurements that errored, hung or timed out
	Skips     int    // attempts rejected while the breaker was open
}

// Status returns the report view of the breaker, with the given identity
// stamped into the Device field.
func (b *Breaker) Status(device int) BreakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStatus{
		Device:    device,
		State:     b.state.String(),
		Successes: b.successes,
		Failures:  b.failed,
		Skips:     b.skips,
	}
}
