// Package supervise is the acquisition supervisor: it runs a campaign
// against a pool of unreliable measurement devices — per-observation
// deadlines, retry with exponential backoff and jitter, a per-device
// circuit breaker, hedged re-measurement on stragglers, and an online
// quality gate — while preserving the byte-identical-corpus contract of
// tracestore.Acquire: observation i depends only on (seed, i), never on
// which device measured it, which attempt succeeded, or how the
// scheduler interleaved the workers.
//
// Time flows through an emleak.Clock, so the whole supervisor runs on a
// virtual clock in tests (internal/faultinject.VirtualClock) with zero
// wall-clock sleeps.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// Device is one measurement channel of the pool. Measure produces
// observation idx of the indexed campaign (seed, idx); implementations
// must be safe for concurrent calls and must honor ctx cancellation
// (a hung device is expected to return only once ctx is done). The
// returned observation must depend only on (seed, idx) — the pool
// freely re-routes indices between devices.
type Device interface {
	N() int
	Measure(ctx context.Context, seed, idx uint64) (emleak.Observation, error)
}

// Ideal adapts a raw victim device to the pool's Device interface: no
// latency, no failures, concurrency-safe via per-call cloning.
type Ideal struct {
	dev *emleak.Device
}

// NewIdeal wraps dev as a perfectly behaved pool device.
func NewIdeal(dev *emleak.Device) *Ideal { return &Ideal{dev: dev} }

// N returns the victim's ring degree.
func (d *Ideal) N() int { return d.dev.N() }

// Measure implements Device.
func (d *Ideal) Measure(ctx context.Context, seed, idx uint64) (emleak.Observation, error) {
	if err := ctx.Err(); err != nil {
		return emleak.Observation{}, err
	}
	return emleak.ObservationAt(d.dev.Clone(0), seed, idx)
}

// PoolOptions tunes the supervised acquisition runner.
type PoolOptions struct {
	// Workers is the number of acquisition pipelines; <= 0 uses
	// GOMAXPROCS. Like tracestore.Acquire, the corpus is byte-identical
	// for every worker count.
	Workers int
	// Start is the index of the first observation to generate (resume
	// offset, as in tracestore.AcquireOptions).
	Start int
	// Timeout is the per-observation deadline of one attempt; an attempt
	// that neither succeeds nor fails within it is cancelled and counted
	// as a device failure (0 disables deadlines).
	Timeout time.Duration
	// Retries is the maximum number of attempts per observation
	// (including the first); <= 0 defaults to 2×devices + 1. Routing is
	// static — attempt a of observation i goes to device (i+a) mod D —
	// so retries double as failover.
	Retries int
	// Backoff is the base delay between failed attempts, doubled per
	// attempt with deterministic jitter derived from (seed, index,
	// attempt) (default 10ms).
	Backoff time.Duration
	// Hedge launches a duplicate measurement on the next available
	// device when the primary has not delivered within this delay. The
	// hedge's result is used only if the primary fails or times out —
	// launch order, not arrival order, picks the winner — so hedging
	// never makes corpus bytes depend on a scheduling race (0 disables
	// hedging).
	Hedge time.Duration
	// Breaker configures the per-device circuit breakers.
	Breaker BreakerConfig
	// Gate configures the online quality gate (zero value disables it).
	Gate GateConfig
	// Clock supplies time; nil uses the wall clock. Tests inject
	// faultinject.VirtualClock here.
	Clock emleak.Clock
	// Progress, when set, is called after each committed observation
	// with the number done so far (including Start) and the total.
	Progress func(done, total int)
}

// Report summarizes a supervised acquisition: per-device breaker state
// and counters, retry/hedge totals, and the quality gate's verdicts.
type Report struct {
	Breakers []BreakerStatus
	// Retried counts attempts beyond the first across all observations.
	Retried int
	// Hedged counts duplicate measurements launched on stragglers.
	Hedged int
	// Health carries the gate's verdicts in Suspect; the observations
	// are written regardless, so Healthy is the full committed count.
	Health tracestore.CorpusHealth
}

// String summarizes the report for CLI output.
func (r *Report) String() string {
	s := fmt.Sprintf("pool: %d retried attempt(s), %d hedge(s)", r.Retried, r.Hedged)
	for _, b := range r.Breakers {
		s += fmt.Sprintf("\n  device %d: %s (%d ok, %d failed, %d skipped)",
			b.Device, b.State, b.Successes, b.Failures, b.Skips)
	}
	return s
}

// pool is the runtime state of one AcquirePool call.
type pool struct {
	devices  []Device
	seed     uint64
	opts     PoolOptions
	clock    emleak.Clock
	breakers []*Breaker
	sems     []chan struct{} // per-device capacity-1 access tokens

	retried atomic.Int64
	hedged  atomic.Int64
}

// AcquirePool runs a known-plaintext campaign of count measurements
// against a pool of devices and streams observations [opts.Start, count)
// into w in index order, through tracestore.AcquireIndexed with the pool's
// retry/failover loop as every worker's measurement. Every observation is
// a pure function of (seed, index), so the committed corpus is
// byte-identical to a single-device tracestore.Acquire run regardless of
// worker count, device misbehavior, failover, hedging or resume splits.
// The returned Report is best-effort diagnostics (breaker states, retry
// counts, gate verdicts) and is returned even when acquisition fails
// partway.
func AcquirePool(ctx context.Context, devices []Device, seed uint64, count int, w tracestore.Appender, opts PoolOptions) (*Report, error) {
	if len(devices) == 0 {
		return nil, errors.New("supervise: empty device pool")
	}
	n := devices[0].N()
	for i, d := range devices {
		if d.N() != n {
			return nil, fmt.Errorf("supervise: device %d has degree %d, pool has %d", i, d.N(), n)
		}
	}
	p := &pool{
		devices: devices,
		seed:    seed,
		opts:    opts,
		clock:   opts.Clock,
	}
	if p.clock == nil {
		p.clock = emleak.WallClock{}
	}
	p.breakers = make([]*Breaker, len(devices))
	p.sems = make([]chan struct{}, len(devices))
	for i := range devices {
		p.breakers[i] = NewBreaker(opts.Breaker)
		p.sems[i] = make(chan struct{}, 1)
	}

	report := &Report{}
	gw := &gatedAppender{w: w, next: opts.Start, health: &report.Health}
	if opts.Gate.Enabled() {
		gw.gate = newGate(opts.Gate)
	}
	err := tracestore.AcquireIndexed(ctx, count, gw, tracestore.AcquireOptions{
		Workers:  opts.Workers,
		Start:    opts.Start,
		Progress: opts.Progress,
	}, func() func(context.Context, uint64) (emleak.Observation, error) { return p.measure })
	report.Retried = int(p.retried.Load())
	report.Hedged = int(p.hedged.Load())
	report.Breakers = make([]BreakerStatus, len(devices))
	for i, b := range p.breakers {
		report.Breakers[i] = b.Status(i)
	}
	return report, err
}

// gatedAppender is the pool's commit step: it runs the quality gate on
// each observation in commit order, so the gate's rolling statistics and
// verdicts are a pure function of the committed prefix, records suspects
// by absolute corpus index, and counts the committed observations as
// Healthy.
type gatedAppender struct {
	w      tracestore.Appender
	gate   *gate // nil when the gate is disabled
	next   int   // absolute index of the next observation
	health *tracestore.CorpusHealth
}

func (a *gatedAppender) Append(o emleak.Observation) error {
	if a.gate != nil {
		if verdict := a.gate.check(o); verdict != "" {
			a.health.Suspect = append(a.health.Suspect,
				tracestore.ObservationFault{Index: a.next, Reason: verdict})
		}
	}
	if err := a.w.Append(o); err != nil {
		return err
	}
	a.next++
	a.health.Healthy++
	return nil
}

// measure produces observation idx through the retry/failover loop:
// attempt a routes to device (idx+a) mod D — static routing, so the
// schedule is a pure function of the index — skipping devices whose
// breaker is open, with exponential backoff plus deterministic jitter
// between failed attempts.
func (p *pool) measure(ctx context.Context, idx uint64) (emleak.Observation, error) {
	d := len(p.devices)
	maxAttempts := p.opts.Retries
	if maxAttempts <= 0 {
		maxAttempts = 2*d + 1
	}
	jrng := rng.New(rng.DeriveSeed(rng.DeriveSeed(p.seed, idx), 0x6a69747465726a))
	var lastErr error
	skipsInRow := 0
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return emleak.Observation{}, err
		}
		dev := (int(idx) + attempt) % d
		if !p.breakers[dev].Allow(p.clock.Now()) {
			skipsInRow++
			if skipsInRow >= d {
				// A full ring of open breakers: wait out a backoff slot
				// instead of hot-spinning until Retries runs out.
				if err := p.backoff(ctx, jrng, attempt); err != nil {
					return emleak.Observation{}, err
				}
				skipsInRow = 0
			}
			lastErr = fmt.Errorf("supervise: device %d breaker open", dev)
			continue
		}
		skipsInRow = 0
		if attempt > 0 {
			p.retried.Add(1)
			mPoolRetries.Inc()
		}
		o, err := p.attempt(ctx, idx, dev)
		if err == nil {
			return o, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return emleak.Observation{}, ctx.Err()
		}
		if attempt < maxAttempts-1 {
			if err := p.backoff(ctx, jrng, attempt); err != nil {
				return emleak.Observation{}, err
			}
		}
	}
	return emleak.Observation{}, fmt.Errorf("supervise: observation %d failed after %d attempts: %w", idx, maxAttempts, lastErr)
}

// backoff sleeps for Backoff·2^attempt plus up to 50% deterministic
// jitter, capped at 64× the base.
func (p *pool) backoff(ctx context.Context, jrng *rng.Xoshiro, attempt int) error {
	base := p.opts.Backoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	shift := attempt
	if shift > 6 {
		shift = 6
	}
	delay := base << uint(shift)
	delay += time.Duration(jrng.Float64() * float64(delay) / 2)
	return p.clock.Sleep(ctx, delay)
}

// measureResult is one device goroutine's outcome within an attempt.
type measureResult struct {
	dev     int
	obs     emleak.Observation
	err     error
	elapsed time.Duration
}

// attempt runs one deadline-bounded, possibly hedged measurement of idx
// with primary as the first device.
//
// Two rules keep it deterministic:
//
//   - The winner is the first *launch-order* success, not the first
//     success to arrive: a hedge's result is used only once the primary
//     has definitively failed (error, hang cancelled at the deadline),
//     so corpus bytes never depend on a scheduling race between two
//     healthy devices.
//   - Every dispatched goroutine is joined before returning, and a hung
//     device's cancelled measurement is recorded as that device's
//     failure even when a hedge already delivered — which is what lets
//     the breaker of a permanently hung device open deterministically.
func (p *pool) attempt(ctx context.Context, idx uint64, primary int) (emleak.Observation, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()

	results := make(chan measureResult, len(p.devices))
	var order []int // launch order; order[0] is the primary
	outcomes := make(map[int]measureResult)
	launch := func(dev int) {
		order = append(order, dev)
		go func() {
			start := p.clock.Now()
			o, err := p.measureOn(actx, dev, idx)
			results <- measureResult{dev: dev, obs: o, err: err, elapsed: p.clock.Now().Sub(start)}
		}()
	}
	launch(primary)

	var timeoutCh, hedgeCh <-chan time.Time
	if p.opts.Timeout > 0 {
		timeoutCh = p.clock.After(p.opts.Timeout)
	}
	if p.opts.Hedge > 0 {
		hedgeCh = p.clock.After(p.opts.Hedge)
	}

	timedOut := false
	anySuccess := false
	for len(outcomes) < len(order) {
		select {
		case r := <-results:
			outcomes[r.dev] = r
			p.recordOutcome(r)
			if r.err == nil {
				anySuccess = true
			}
			if _, done := outcomes[primary]; done {
				// The primary is decided; any still-running hedge only
				// delays the attempt (its result cannot outrank a primary
				// success, and a failed primary takes the first delivered
				// hedge anyway once everything is drained).
				cancel()
			} else if anySuccess && p.opts.Timeout <= 0 {
				// No deadline will ever cancel a hung primary; take the
				// hedge's success rather than waiting forever.
				cancel()
			}
		case <-hedgeCh:
			hedgeCh = nil
			if !anySuccess && !timedOut {
				if h := p.nextAllowed(primary); h >= 0 {
					p.hedged.Add(1)
					mPoolHedges.Inc()
					launch(h)
				}
			}
		case <-timeoutCh:
			timeoutCh = nil
			timedOut = true
			cancel() // deadline; drain whatever is in flight
		}
	}
	// First launch-order success wins; launch order is deterministic
	// (primary, then hedges in ring order).
	var firstErr error
	for _, dev := range order {
		r := outcomes[dev]
		if r.err == nil {
			return r.obs, nil
		}
		if firstErr == nil && !isCancellation(r.err) {
			firstErr = r.err
		}
	}
	if firstErr != nil {
		return emleak.Observation{}, firstErr
	}
	if timedOut {
		return emleak.Observation{}, fmt.Errorf("supervise: device %d exceeded the %v observation deadline", primary, p.opts.Timeout)
	}
	return emleak.Observation{}, ctx.Err()
}

// recordOutcome feeds one measurement outcome to its device's breaker.
// Cancellation-induced errors only count as failures when the device was
// genuinely a straggler (it held the measurement at least as long as the
// hedge/timeout horizon); a healthy device that merely lost the hedge
// race by a scheduling instant is not penalized.
func (p *pool) recordOutcome(r measureResult) {
	ok := r.err == nil
	if !ok && isCancellation(r.err) {
		horizon := p.opts.Hedge
		if horizon <= 0 || (p.opts.Timeout > 0 && p.opts.Timeout < horizon) {
			horizon = p.opts.Timeout
		}
		if horizon <= 0 || r.elapsed < horizon {
			return
		}
	}
	p.breakers[r.dev].Record(ok, p.clock.Now())
}

func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// nextAllowed returns the first device after primary (ring order) whose
// breaker admits an attempt — the hedge target, which is by construction
// the same device a timeout-failover would route to next. -1 when no
// other device is available.
func (p *pool) nextAllowed(primary int) int {
	d := len(p.devices)
	now := p.clock.Now()
	for off := 1; off < d; off++ {
		dev := (primary + off) % d
		if p.breakers[dev].Allow(now) {
			return dev
		}
	}
	return -1
}

// measureOn serializes access to one device (a physical instrument
// measures one thing at a time) and runs the measurement under the
// attempt context. Waiting for a wedged device's semaphore counts
// against the caller's deadline, as it would on a real bench.
func (p *pool) measureOn(ctx context.Context, dev int, idx uint64) (emleak.Observation, error) {
	select {
	case p.sems[dev] <- struct{}{}:
	case <-ctx.Done():
		return emleak.Observation{}, ctx.Err()
	}
	defer func() { <-p.sems[dev] }()
	if err := ctx.Err(); err != nil {
		return emleak.Observation{}, err
	}
	return p.devices[dev].Measure(ctx, p.seed, idx)
}
