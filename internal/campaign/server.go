package campaign

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"falcondown/internal/core"
	"falcondown/internal/tracestore"
)

// Config tunes a Server. Zero values take the stated defaults.
type Config struct {
	// Slots is the number of campaigns that run concurrently (default 1).
	// Each slot drives one campaign end to end; campaigns never share
	// state — isolation is per-directory, proven by the concurrency
	// suite.
	Slots int
	// QueueCap bounds the number of queued (not yet running) campaigns
	// (default 64; submissions beyond it get ErrQueueFull / HTTP 503).
	QueueCap int
	// TenantMax bounds one tenant's active (queued + running) campaigns
	// (default 4; 0 < TenantMax; submissions beyond it get
	// ErrTenantQuota / HTTP 429). Set negative for unlimited.
	TenantMax int
	// TenantDiskBytes bounds one tenant's store-directory footprint
	// (0 = unlimited). A submission is charged an upper-bound estimate of
	// its corpus size up front; the charge is trued-up against the real
	// directory when the campaign settles and released entirely on
	// cancellation. Submissions that would exceed the cap get
	// ErrDiskQuota / HTTP 429.
	TenantDiskBytes int64
	// Limits bounds what a single campaign may ask for.
	Limits Limits
	// Distributor, when set, builds a core.Distributor for a campaign
	// whose spec asks for distributed execution; corpus is the campaign's
	// trace path relative to the store root (workers resolve it against
	// their own copy of the root), and src is the opened authoritative
	// corpus — a fleet-backed server registers it with its blob service so
	// divergent or diskless workers can pull the true shards by content
	// digest. Nil runs every campaign locally even if its spec says
	// distributed — degradation, not rejection.
	Distributor func(corpus string, src *tracestore.Corpus) core.Distributor
	// HealthExtra, when set, contributes extra counters to the healthz
	// snapshot (campaignd -fleet reports fleet tallies through it).
	HealthExtra func() map[string]int64
}

func (c Config) withDefaults() Config {
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.TenantMax == 0 {
		c.TenantMax = 4
	}
	return c
}

// Server multiplexes attack campaigns over a shared store root: a bounded
// priority queue feeds slot workers that run each campaign through the
// resumable acquisition and checkpointed attack phases. Opening a server
// over an existing store re-adopts every in-flight campaign from its
// durable artifacts.
type Server struct {
	cfg   Config
	store *Store

	mu        sync.Mutex
	campaigns map[string]*Campaign
	order     []string // admission order, for listings
	nextID    int
	nextSeq   int
	adopted   []string
	// usage tracks per-tenant store-directory bytes (reservations for
	// in-flight campaigns, measured footprints for settled ones); guarded
	// by mu along with every Campaign.diskCharge.
	usage map[string]int64

	queue     *queue
	runCtx    context.Context
	runCancel context.CancelFunc
	killed    atomic.Bool
	wg        sync.WaitGroup
	started   bool
}

// Open builds a server over the store root, scanning it for existing
// campaigns. Terminal campaigns are listed as-is; in-flight ones
// (queued/acquiring/attacking at the time of the crash or shutdown) are
// marked adopted and re-enqueued when Start is called. Open never starts
// work — callers inspect Adopted() and then Start().
func Open(root string, cfg Config) (*Server, error) {
	store, err := NewStore(root)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		store:     store,
		campaigns: make(map[string]*Campaign),
		usage:     make(map[string]int64),
		queue:     newQueue(cfg.QueueCap),
		runCtx:    ctx,
		runCancel: cancel,
	}
	scanned, err := store.Scan()
	if err != nil {
		cancel()
		return nil, err
	}
	s.nextID = NextID(scanned)
	registerQueueDepth(s)
	for _, p := range scanned {
		c := &Campaign{
			ID:     p.ID,
			Spec:   p.Spec,
			seq:    s.nextSeq,
			dir:    store.Dir(p.ID),
			log:    newEventLog(),
			status: p.State.Status,
		}
		c.phase = p.State.Phase
		c.acquired = p.State.Acquired
		c.errMsg = p.State.Error
		s.nextSeq++
		if terminal(c.status) {
			c.log.close()
		} else {
			c.adopted = true
			c.status = StatusQueued // re-runs from its durable artifacts
			s.adopted = append(s.adopted, c.ID)
			c.log.append(Event{
				Type:  EventAdopted,
				Phase: p.State.Phase,
				Count: p.State.Acquired,
				Msg:   fmt.Sprintf("re-adopted after restart (was %q)", p.State.Status),
			})
		}
		// Disk accounting restarts from what is actually on disk;
		// cancelled campaigns were released when they went terminal and
		// stay released.
		if p.State.Status != StatusCancelled {
			c.diskCharge = dirBytes(c.dir)
			s.usage[c.Spec.Tenant] += c.diskCharge
		}
		s.campaigns[c.ID] = c
		s.order = append(s.order, c.ID)
	}
	return s, nil
}

// Adopted lists the campaign IDs re-admitted from disk by Open, in ID
// order.
func (s *Server) Adopted() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.adopted...)
}

// Start enqueues the adopted campaigns (ahead of any new submissions, in
// ID order, bypassing the queue bound — they were admitted before the
// restart) and launches the slot workers.
func (s *Server) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	for _, id := range s.adopted {
		s.queue.push(s.campaigns[id], true)
	}
	slots := s.cfg.Slots
	s.mu.Unlock()
	for i := 0; i < slots; i++ {
		s.wg.Add(1)
		go s.slot()
	}
}

// slot is one campaign-execution worker.
func (s *Server) slot() {
	defer s.wg.Done()
	for {
		c, err := s.queue.pop(s.runCtx)
		if err != nil {
			return
		}
		s.runCampaign(c)
		if s.runCtx.Err() != nil {
			return
		}
	}
}

// Submit validates, persists and enqueues a new campaign.
func (s *Server) Submit(spec Spec) (*Campaign, error) {
	spec, err := spec.Normalize(s.cfg.Limits)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.TenantMax > 0 && s.activeLocked(spec.Tenant) >= s.cfg.TenantMax {
		mReject429.Inc()
		return nil, fmt.Errorf("%w: tenant %q already has %d active campaign(s)",
			ErrTenantQuota, spec.Tenant, s.cfg.TenantMax)
	}
	charge := estimateSpecBytes(spec)
	if s.cfg.TenantDiskBytes > 0 && s.usage[spec.Tenant]+charge > s.cfg.TenantDiskBytes {
		mReject429.Inc()
		return nil, fmt.Errorf("%w: tenant %q holds %d byte(s), campaign needs ~%d more, cap is %d",
			ErrDiskQuota, spec.Tenant, s.usage[spec.Tenant], charge, s.cfg.TenantDiskBytes)
	}
	if s.queue.depth() >= s.cfg.QueueCap {
		mReject503.Inc()
		return nil, fmt.Errorf("%w: %d campaign(s) queued", ErrQueueFull, s.cfg.QueueCap)
	}
	id := FormatID(s.nextID)
	if err := s.store.Create(id, spec); err != nil {
		return nil, err
	}
	c := &Campaign{
		ID:     id,
		Spec:   spec,
		seq:    s.nextSeq,
		dir:    s.store.Dir(id),
		log:    newEventLog(),
		status: StatusQueued,
	}
	if err := s.store.SaveState(id, c.currentState()); err != nil {
		return nil, err
	}
	c.diskCharge = charge
	s.usage[spec.Tenant] += charge
	mSubmitted.Inc()
	tenantDiskGauge(spec.Tenant).Set(float64(s.usage[spec.Tenant]))
	s.nextID++
	s.nextSeq++
	s.campaigns[id] = c
	s.order = append(s.order, id)
	c.log.append(Event{Type: EventQueued, Msg: fmt.Sprintf("queued at priority %d", spec.Priority)})
	s.queue.push(c, true) // capacity already checked under s.mu
	return c, nil
}

// activeLocked counts a tenant's non-terminal campaigns. Caller holds
// s.mu.
func (s *Server) activeLocked(tenant string) int {
	n := 0
	for _, c := range s.campaigns {
		if c.Spec.Tenant == tenant && !terminal(c.Status()) {
			n++
		}
	}
	return n
}

// estimateSpecBytes upper-bounds a campaign's store-directory footprint:
// the corpus estimate plus a flat allowance for the spec, state, sidecar,
// result and public-key files.
func estimateSpecBytes(spec Spec) int64 {
	return tracestore.EstimateCorpusBytes(spec.N, spec.Traces) + 1<<16
}

// dirBytes sums the file sizes under dir (0 if it does not exist).
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}

// settleDisk reconciles a terminal campaign's tenant disk charge: a
// cancelled campaign releases its reservation entirely (the operator
// reclaims any bytes out of band), any other terminal campaign is
// trued-up from the submission-time estimate to the bytes actually on
// disk.
func (s *Server) settleDisk(c *Campaign) {
	actual := int64(0)
	if c.Status() != StatusCancelled {
		actual = dirBytes(c.dir)
	}
	s.mu.Lock()
	s.usage[c.Spec.Tenant] += actual - c.diskCharge
	if s.usage[c.Spec.Tenant] < 0 {
		s.usage[c.Spec.Tenant] = 0
	}
	c.diskCharge = actual
	tenantDiskGauge(c.Spec.Tenant).Set(float64(s.usage[c.Spec.Tenant]))
	s.mu.Unlock()
}

// TenantDiskUsage reports the bytes currently accounted to a tenant
// (reservations for in-flight campaigns plus measured footprints of
// settled ones).
func (s *Server) TenantDiskUsage(tenant string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.usage[tenant]
}

// Get returns a campaign by ID.
func (s *Server) Get(id string) (*Campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List returns snapshots of every campaign in admission order.
func (s *Server) List() []Snapshot {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]Snapshot, 0, len(ids))
	for _, id := range ids {
		if c, ok := s.Get(id); ok {
			out = append(out, c.Snapshot())
		}
	}
	return out
}

// QueueDepth reports the number of queued campaigns.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// Store exposes the server's store (result/key reads for the HTTP layer).
func (s *Server) Store() *Store { return s.store }

// Stop shuts the server down gracefully: campaigns stop at their next
// boundary (acquisition commit, attack phase checkpoint) with their state
// persisted, so a later Open re-adopts them. Stop waits for the slot
// workers up to the context deadline.
func (s *Server) Stop(ctx context.Context) error {
	s.runCancel()
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrTerminal reports a cancel request against a campaign that already
// reached a terminal state (HTTP 409).
var ErrTerminal = errors.New("campaign: already terminal")

// Cancel stops one campaign: a queued campaign goes terminal on the
// spot (its queue entry is skipped when popped); a running one has its
// context cancelled and stops at the next durable boundary —
// acquisition chunk or attack phase checkpoint — exactly like a
// graceful shutdown, except the campaign lands in "cancelled" instead
// of staying re-adoptable. Its tenant-quota slot frees either way.
func (s *Server) Cancel(id string) (Snapshot, error) {
	c, ok := s.Get(id)
	if !ok {
		return Snapshot{}, fmt.Errorf("campaign: no such campaign %q", id)
	}
	c.mu.Lock()
	if terminal(c.status) {
		c.mu.Unlock()
		return c.Snapshot(), ErrTerminal
	}
	c.cancelReq = true
	cancel := c.cancel
	if cancel == nil {
		// Still queued: never started, so go terminal directly. The slot
		// worker that eventually pops this entry sees the terminal status
		// and drops it.
		c.status = StatusCancelled
		c.mu.Unlock()
		s.settleDisk(c)
		if err := s.store.SaveState(id, c.currentState()); err != nil {
			return c.Snapshot(), err
		}
		c.log.append(Event{Type: EventCancelled, Msg: "cancelled while queued"})
		c.log.close()
		return c.Snapshot(), nil
	}
	c.mu.Unlock()
	cancel()
	return c.Snapshot(), nil
}

// Kill hard-aborts the server without any cleanup: no shard
// finalization, no state persistence, workers abandoned mid-flight. It
// emulates a SIGKILL for the crash-recovery suite (a real SIGKILL is
// exercised by scripts/smoke.sh against the daemon); production shutdown
// is Stop.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.runCancel()
}
