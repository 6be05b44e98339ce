package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"falcondown/internal/codec"
	"falcondown/internal/core"
	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/obs"
	"falcondown/internal/rng"
	"falcondown/internal/supervise"
	"falcondown/internal/tracestore"
)

// forgeSalt derives the forgery's signing randomness from the campaign
// seed, so a re-adopted campaign produces byte-identical result artifacts
// to an uninterrupted run (FALCON signatures are randomized; a campaign's
// must still be a pure function of its spec).
const forgeSalt = 0xf0e6ed

// Result is the success record of a campaign (result.json). The key
// itself is also stored as canonical core.KeyJSON bytes (key.json) for
// byte-comparison against cmd/attack's -key dump.
type Result struct {
	Status string `json:"status"` // always "done"
	// F and G are the recovered secret elements; F/G of the NTRU equation
	// are recomputed from them on demand.
	F []int16 `json:"f"`
	G []int16 `json:"g"`
	// MinPrune and Significant summarize the attack statistics.
	MinPrune    float64 `json:"minPrune"`
	Significant bool    `json:"significant"`
	// Corrected lists values repaired by the exponent error-correction
	// pass.
	Corrected []int `json:"corrected,omitempty"`
	// Message is the text the forged signature signs; Signature is the
	// encoded forgery (verified against the victim public key before the
	// result is written).
	Message    string `json:"message"`
	Signature  []byte `json:"signature"`
	TracesUsed int    `json:"tracesUsed"`
}

// testHooks are synchronization points for the kill/restart tests: they
// let a test block the runner at a deterministic spot (mid-acquisition,
// between attack phases) before hard-killing the server. Nil in
// production.
type testHooks struct {
	mu      sync.Mutex
	acquire func(id string, count int)
	phase   func(id, stage string)
}

var hooks testHooks

func (h *testHooks) onAcquire(id string, count int) {
	h.mu.Lock()
	f := h.acquire
	h.mu.Unlock()
	if f != nil {
		f(id, count)
	}
}

func (h *testHooks) onPhase(id, stage string) {
	h.mu.Lock()
	f := h.phase
	h.mu.Unlock()
	if f != nil {
		f(id, stage)
	}
}

func (h *testHooks) set(acquire func(string, int), phase func(string, string)) {
	h.mu.Lock()
	h.acquire, h.phase = acquire, phase
	h.mu.Unlock()
}

// runCampaign drives one campaign to a terminal state (or to the point
// where the server was stopped/killed, leaving it re-adoptable). The
// terminal event is its last act: it is appended only after the flight
// record and the final disk settlement, so a client that sees "done",
// "failed" or "cancelled" finds every file of the campaign in place.
func (s *Server) runCampaign(c *Campaign) {
	if s.runCtx.Err() != nil {
		return
	}
	// Each campaign runs under its own child context so DELETE can abort
	// just this one; begin refuses campaigns that went terminal while
	// still queued (cancelled entries are popped and dropped here).
	ctx, cancel := context.WithCancel(s.runCtx)
	defer cancel()
	if !c.begin(cancel) {
		return
	}
	mActive.Add(1)
	wall := obs.StartSpan(mWall)
	var final []Event
	defer func() {
		mActive.Add(-1)
		wall.End()
		// A campaign interrupted by shutdown is not terminal; the counter
		// map ignores its status.
		observeTerminal(c.Status())
		// The flight record lands in the campaign directory however the
		// run ended — a failed recovery's metrics are exactly the ones
		// worth keeping. It carries timings, so it is deliberately outside
		// the byte-identity comparisons the restart suite runs, and a
		// write failure must not change the campaign's outcome. It adds
		// bytes after the terminal paths trued up the tenant ledger, so a
		// terminal campaign settles once more to charge for it.
		_ = obs.Default().WriteFlightRecord("campaignd", filepath.Join(c.dir, obsFile))
		if terminal(c.Status()) {
			s.settleDisk(c)
		}
		for _, e := range final {
			c.log.append(e)
		}
		if terminal(c.Status()) {
			c.log.close()
		}
	}()
	done, err := s.execute(ctx, c)
	if err == nil {
		final = append(final, done)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if c.cancelRequested() && s.runCtx.Err() == nil {
			// A per-campaign cancel, not a server shutdown: the campaign is
			// terminal, its durable state says so, and its tenant slot frees.
			c.setState(StatusCancelled, "", "")
			if !s.killed.Load() {
				if serr := s.store.SaveState(c.ID, c.currentState()); serr != nil {
					final = append(final, Event{Type: EventCancelled, Msg: "state persist failed: " + serr.Error()})
				}
			}
			s.settleDisk(c)
			final = append(final, Event{Type: EventCancelled, Msg: "cancelled by request"})
			return
		}
		// Shutdown: the campaign stays in-flight and re-adoptable.
		return
	}
	c.setState(StatusFailed, "", err.Error())
	if !s.killed.Load() {
		if serr := s.store.SaveState(c.ID, c.currentState()); serr != nil {
			final = append(final, Event{Type: EventFailed, Msg: "state persist failed: " + serr.Error()})
		}
	}
	s.settleDisk(c)
	final = append(final, Event{Type: EventFailed, Msg: err.Error()})
}

// execute runs the two campaign phases: acquire the corpus (resumable),
// then attack it (checkpointed) and forge. On success it returns the
// terminal "done" event for runCampaign to append last.
func (s *Server) execute(ctx context.Context, c *Campaign) (Event, error) {
	pub, dev, err := victim(c.Spec)
	if err != nil {
		return Event{}, err
	}
	pubPath := filepath.Join(c.dir, pubFile)
	if !exists(pubPath) {
		logn := bits.Len(uint(c.Spec.N)) - 1
		if err := os.WriteFile(pubPath, codec.EncodePublicKey(pub.H, logn), 0o644); err != nil {
			return Event{}, err
		}
	}
	asp := phaseSpan("acquire")
	if err := s.acquire(ctx, c, dev); err != nil {
		return Event{}, err
	}
	asp.End()
	return s.attack(ctx, c, pub)
}

// victim deterministically reconstructs the campaign's synthetic victim:
// key from the seed, device noise from seed+1 — the exact derivation
// cmd/tracegen uses, so the corpus is byte-identical to a tracegen run
// with the same parameters.
func victim(spec Spec) (*falcon.PublicKey, *emleak.Device, error) {
	priv, pub, err := falcon.GenerateKey(spec.N, rng.New(spec.Seed))
	if err != nil {
		return nil, nil, err
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: spec.Noise}, spec.Seed+1)
	return pub, dev, nil
}

// progressAppender wraps the corpus writer to publish acquisition
// progress. Appends arrive in commit order from a single goroutine, so
// the count is exact.
type progressAppender struct {
	inner tracestore.Appender
	c     *Campaign
	count int
	every int
}

func (a *progressAppender) Append(o emleak.Observation) error {
	if err := a.inner.Append(o); err != nil {
		return err
	}
	a.count++
	if a.count%a.every == 0 {
		a.c.setAcquired(a.count)
		a.c.log.append(Event{Type: EventAcquire, Count: a.count})
		hooks.onAcquire(a.c.ID, a.count)
	}
	return nil
}

// acquire captures (or finishes capturing) the campaign corpus. A
// re-adopted campaign resumes from the last durable chunk: ResumeWriter
// salvages a torn final shard exactly as tracegen -resume does, and the
// (seed, index) derivation regenerates the identical remaining
// observations, so the finished corpus is byte-identical to an
// uninterrupted one.
func (s *Server) acquire(ctx context.Context, c *Campaign, dev *emleak.Device) error {
	spec := c.Spec
	opts := tracestore.Options{ShardObs: spec.ShardObs, ChunkObs: spec.ChunkObs}
	w, done, err := tracestore.ResumeWriter(s.store.TracePath(c.ID), spec.N, opts)
	if err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	if done > spec.Traces {
		w.Close()
		return fmt.Errorf("acquire: corpus already holds %d traces, more than the requested %d", done, spec.Traces)
	}
	c.setAcquired(done)
	c.setState(StatusAcquiring, "", "")
	if err := s.store.SaveState(c.ID, c.currentState()); err != nil {
		w.Close()
		return err
	}

	var report *supervise.Report
	if done < spec.Traces {
		pa := &progressAppender{inner: w, c: c, count: done, every: max(1, spec.Traces/10)}
		if spec.Supervised() {
			report, err = acquirePool(ctx, dev, spec, done, pa)
		} else {
			err = tracestore.Acquire(ctx, dev, spec.Seed+2, spec.Traces, pa, tracestore.AcquireOptions{
				Workers: spec.Workers,
				Start:   done,
			})
		}
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// Graceful stop: finalize the shard at the last committed
				// chunk so restart resumes instead of salvaging. A hard
				// Kill skips this — that is the crash the salvage path
				// exists for.
				if !s.killed.Load() {
					if _, ierr := w.Interrupt(); ierr == nil {
						s.store.SaveState(c.ID, c.currentState())
					}
				}
				return err
			}
			w.Interrupt() // keep what was committed; the campaign stays resumable
			return fmt.Errorf("acquire: %w", err)
		}
	}
	if err := w.Close(); err != nil {
		return fmt.Errorf("acquire: %w", err)
	}
	c.setAcquired(spec.Traces)
	ev := Event{Type: EventAcquired, Count: spec.Traces}
	if report != nil {
		ev.Suspects = len(report.Health.Suspect)
		ev.Breakers = breakerSummary(report)
	}
	c.log.append(ev)
	return nil
}

// acquirePool routes acquisition through the supervision layer, exactly
// mirroring tracegen's pool mode.
func acquirePool(ctx context.Context, dev *emleak.Device, spec Spec, done int, w tracestore.Appender) (*supervise.Report, error) {
	dists, err := emleak.ParseFlakySpec(spec.Flaky, spec.Devices, spec.Seed)
	if err != nil {
		return nil, err
	}
	pool := make([]supervise.Device, spec.Devices)
	for i := range pool {
		if d, ok := dists[i]; ok {
			pool[i] = emleak.NewFlakyDevice(dev, d, nil)
		} else {
			pool[i] = supervise.NewIdeal(dev)
		}
	}
	return supervise.AcquirePool(ctx, pool, spec.Seed+2, spec.Traces, w, supervise.PoolOptions{
		Workers: spec.Workers,
		Start:   done,
		Timeout: spec.Timeout(),
		Hedge:   spec.Hedge(),
		Breaker: supervise.BreakerConfig{Threshold: spec.Breaker},
	})
}

// breakerSummary compacts the pool report's breaker states into one line.
func breakerSummary(r *supervise.Report) string {
	s := ""
	for i, b := range r.Breakers {
		if i > 0 {
			s += "; "
		}
		s += fmt.Sprintf("device %d: %v", b.Device, b.State)
	}
	return s
}

// watchedStore decorates the attack's checkpoint sidecar store with
// progress events and cooperative cancellation: every phase completion is
// announced after it is durable, and a stop request aborts the attack at
// the next phase boundary — after the checkpoint landed, so nothing is
// lost.
type watchedStore struct {
	inner *core.FileCheckpoint
	s     *Server
	c     *Campaign
	ctx   context.Context
	beams map[string]int
}

func (w *watchedStore) Load() (*core.Checkpoint, error) { return w.inner.Load() }

func (w *watchedStore) Save(ck *core.Checkpoint) error {
	if err := w.inner.Save(ck); err != nil {
		return err
	}
	w.c.setState(StatusAttacking, ck.Stage, "")
	if err := w.s.store.SaveState(w.c.ID, w.c.currentState()); err != nil {
		return err
	}
	w.c.log.append(Event{Type: EventPhase, Phase: ck.Stage, Beam: w.beams[ck.Stage]})
	hooks.onPhase(w.c.ID, ck.Stage)
	if err := w.ctx.Err(); err != nil {
		return err
	}
	return nil
}

// phaseBeams maps each attack phase to the candidate beam width it ran
// with, for the progress stream.
func phaseBeams(cfg core.Config) map[string]int {
	base := cfg.EffectiveTopK()
	escalated := min(base*8, core.MaxBeam)
	return map[string]int{
		core.StageExponents:  base,
		core.StageMantissa:   base,
		core.StageEscalation: escalated,
		core.StageSigns:      base,
		core.StageStragglers: core.MaxBeam,
	}
}

// attack runs the checkpointed extraction over the campaign corpus, then
// forges and verifies a signature with the recovered key and persists the
// result, returning the "done" event. A re-adopted campaign resumes from
// its sidecar; the finished sidecar is byte-identical to an uninterrupted
// run's and is kept as the campaign's durable attack record.
func (s *Server) attack(ctx context.Context, c *Campaign, pub *falcon.PublicKey) (Event, error) {
	spec := c.Spec
	corpus, err := tracestore.Open(s.store.TracePath(c.ID))
	if err != nil {
		return Event{}, fmt.Errorf("attack: %w", err)
	}
	c.setState(StatusAttacking, "", "")
	if err := s.store.SaveState(c.ID, c.currentState()); err != nil {
		return Event{}, err
	}
	c.log.append(Event{Type: EventAttacking})

	cfg := spec.AttackConfig()
	ws := &watchedStore{
		inner: &core.FileCheckpoint{Path: s.store.SidecarPath(c.ID)},
		s:     s,
		c:     c,
		ctx:   ctx,
		beams: phaseBeams(cfg),
	}
	var priv *falcon.PrivateKey
	var report *core.RecoveryReport
	ksp := phaseSpan("attack")
	if spec.Distributed && s.cfg.Distributor != nil {
		// Fleet execution: corpus sweeps fan out to the worker fleet, named
		// by the campaign's store-relative trace path; the opened corpus is
		// handed along so the fleet's blob service can push authoritative
		// shards to divergent or diskless workers. The checkpointed
		// phases, the sidecar and every result byte are identical to a
		// local run — the differential suite holds at fleet granularity.
		dist := s.cfg.Distributor(filepath.Join(c.ID, traceFile), corpus)
		c.log.append(Event{Type: EventAttacking, Msg: "distributed over the worker fleet"})
		priv, report, err = core.RecoverKeyDistributed(corpus, pub, cfg, ws, dist)
		if fr, ok := dist.(fleetReporter); ok {
			c.log.append(Event{Type: EventFleet, Msg: fr.Summary()})
		}
	} else {
		priv, report, err = core.RecoverKeyResumable(corpus, pub, cfg, ws)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return Event{}, err
		}
		msg := err.Error()
		if report != nil && len(report.Failed) > 0 {
			msg = fmt.Sprintf("%v (%d value(s) could not be established; first: %s)",
				err, len(report.Failed), report.Failed[0])
		}
		return Event{}, errors.New("attack: " + msg)
	}
	ksp.End()

	fsp := phaseSpan("forge")
	sig, err := priv.Sign([]byte(spec.Message), rng.New(rng.DeriveSeed(spec.Seed, forgeSalt)))
	if err != nil {
		return Event{}, fmt.Errorf("forge: %w", err)
	}
	fsp.End()
	vsp := phaseSpan("verify")
	if err := pub.Verify([]byte(spec.Message), sig); err != nil {
		return Event{}, fmt.Errorf("forge: signature did not verify: %w", err)
	}
	vsp.End()
	logn := bits.Len(uint(spec.N)) - 1
	enc, err := sig.Encode(logn, pub.Params.SigByteLen)
	if err != nil {
		return Event{}, fmt.Errorf("forge: %w", err)
	}

	traces := spec.Traces
	if len(report.Values) > 0 {
		traces = report.Values[0].TracesUsed
	}
	res := Result{
		Status:      StatusDone,
		F:           report.F,
		G:           report.G,
		MinPrune:    report.MinPrune,
		Significant: report.Significant,
		Corrected:   report.Corrected,
		Message:     spec.Message,
		Signature:   enc,
		TracesUsed:  traces,
	}
	if err := s.store.SaveResult(c.ID, res, core.KeyJSON(report.F, report.G)); err != nil {
		return Event{}, err
	}
	c.setState(StatusDone, "", "")
	if err := s.store.SaveState(c.ID, c.currentState()); err != nil {
		return Event{}, err
	}
	// Settle after the final state write so the trued-up charge matches
	// the bytes actually left in the campaign directory.
	s.settleDisk(c)
	return Event{Type: EventDone, Msg: fmt.Sprintf("key recovered (min prune %.3f), forgery verified", report.MinPrune)}, nil
}
