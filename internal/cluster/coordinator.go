package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"falcondown/internal/core"
	"falcondown/internal/supervise"
)

// Options configures a coordinator.
type Options struct {
	// Workers are the fleet's base URLs (e.g. http://10.0.0.2:9100). An
	// empty fleet is legal: every task runs coordinator-local.
	Workers []string
	// Corpus is the corpus name workers resolve (relative to their root).
	Corpus string
	// BlobURL, when set, is advertised to workers as the shard-push
	// endpoint (see BlobServer): a worker with a missing or divergent
	// replica repairs itself from it instead of rejecting tasks, and a
	// diskless worker joins the fleet cold.
	BlobURL string
	// Transport overrides the HTTP transport (tests inject
	// faultinject.FlakyTransport here); nil means http.DefaultTransport.
	Transport http.RoundTripper
	// Lease is the per-attempt deadline. A worker that has not answered
	// within its lease is presumed dead or partitioned; the lease expires
	// and the task is re-issued exactly once per expiry, to the next node
	// in the ring. Default 30s.
	Lease time.Duration
	// Retries is how many re-issues a task gets after its first attempt
	// before degrading to coordinator-local execution. Default 2.
	Retries int
	// Backoff is the base of the exponential backoff between re-issues.
	// Default 100ms.
	Backoff time.Duration
	// Hedge, when positive, launches a second copy of a task on the next
	// ring node if the primary has not answered within this duration —
	// straggler mitigation. Both copies may deposit; the fold's dedupe
	// keeps exactly one. Zero disables hedging. Cross-checked tasks
	// never hedge (their witness is already a second copy).
	Hedge time.Duration
	// Breaker configures the per-worker-node circuit breakers ("a
	// straggler node is just a flaky device one level up").
	Breaker supervise.BreakerConfig
	// ShardsPerTask is the lease granularity: how many corpus shards one
	// task covers. Default 4.
	ShardsPerTask int
	// CrossCheck double-issues this deterministic fraction of task
	// blocks to two distinct ring nodes and compares their partials
	// bit for bit before anything is deposited; disagreement is
	// adjudicated against a coordinator-local compute and the lying
	// node is quarantined. 0 disables; 1 checks every block (values
	// between are probabilistic protection only — an unchecked block
	// from a liar still folds). Needs at least two nodes to engage.
	CrossCheck float64
}

// Report counts what the fleet did; the differential suite asserts on it
// (and only on it — never on result bytes, which must not depend on any
// of this).
type Report struct {
	Passes      int // distributed passes coordinated
	Tasks       int // task blocks issued
	Remote      int // tasks completed by a worker
	Local       int // tasks degraded to coordinator-local execution
	Retries     int // task re-issues after a failed or expired lease
	Hedges      int // hedged secondary launches
	Rejected    int // partial blocks rejected (digest, decode, or shape)
	Duplicates  int // duplicate shard deposits dropped by the fold
	Skips       int // attempts skipped by an open breaker or quarantine
	Divergent   int // tasks a worker rejected over a divergent replica
	Repairs     int // shard files workers fetched from the blob service
	CrossChecks int // task blocks double-issued for comparison
	Mismatches  int // cross-checked blocks whose replicas disagreed
	Quarantined int // nodes quarantined after losing a cross-check
}

// String renders the report as the one-line fleet summary the CLI and
// campaign events print.
func (r Report) String() string {
	return fmt.Sprintf("tasks=%d remote=%d local=%d retries=%d hedges=%d rejected=%d divergent=%d repairs=%d crosschecks=%d mismatches=%d quarantined=%d skips=%d",
		r.Tasks, r.Remote, r.Local, r.Retries, r.Hedges, r.Rejected,
		r.Divergent, r.Repairs, r.CrossChecks, r.Mismatches, r.Quarantined, r.Skips)
}

type workerNode struct {
	url string
	br  *supervise.Breaker
	// quarantined flags a node caught returning wrong partials. Unlike
	// a breaker trip it never half-opens: wrong bytes are a trust
	// failure, not a liveness blip.
	quarantined atomic.Bool
}

// Coordinator implements core.Distributor over a worker fleet. It owns
// the fold: workers only ever see (view, jobs, shard range) and return
// partials; the coordinator deposits them into the pass, which folds in
// pinned shard order regardless of arrival order. One Coordinator serves
// one campaign at a time (passes are sequential).
type Coordinator struct {
	opts   Options
	client *http.Client
	nodes  []*workerNode

	mu  sync.Mutex
	rep Report
}

// New builds a coordinator for the given fleet.
func New(opts Options) *Coordinator {
	if opts.Lease <= 0 {
		opts.Lease = 30 * time.Second
	}
	if opts.Retries <= 0 {
		opts.Retries = 2
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 100 * time.Millisecond
	}
	if opts.ShardsPerTask <= 0 {
		opts.ShardsPerTask = 4
	}
	c := &Coordinator{
		opts:   opts,
		client: &http.Client{Transport: opts.Transport},
	}
	for _, u := range opts.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		c.nodes = append(c.nodes, &workerNode{url: u, br: supervise.NewBreaker(opts.Breaker)})
	}
	return c
}

// Report snapshots the fleet counters.
func (c *Coordinator) Report() Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rep
}

// Summary renders the current fleet report in its one-line form — the
// loosely-coupled surface a campaign server logs into its event stream
// without importing this package (it asserts for a Summary() string
// method on its Distributor).
func (c *Coordinator) Summary() string { return c.Report().String() }

// Breakers snapshots the per-node breaker states, indexed like
// Options.Workers.
func (c *Coordinator) Breakers() []supervise.BreakerStatus {
	out := make([]supervise.BreakerStatus, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.br.Status(i)
	}
	return out
}

// Quarantined lists the URLs of nodes quarantined for returning wrong
// partials.
func (c *Coordinator) Quarantined() []string {
	var out []string
	for _, n := range c.nodes {
		if n.quarantined.Load() {
			out = append(out, n.url)
		}
	}
	return out
}

func (c *Coordinator) bump(f func(r *Report)) {
	c.mu.Lock()
	f(&c.rep)
	c.mu.Unlock()
}

// errBreakerOpen marks an attempt skipped (not failed) because the
// node's breaker refused it.
var errBreakerOpen = errors.New("cluster: worker breaker open")

// errQuarantined marks an attempt skipped because the node was caught
// lying in a cross-check; it never serves this campaign again.
var errQuarantined = errors.New("cluster: worker quarantined")

// RunPass implements core.Distributor: cut the pass into task blocks,
// fan them out over the fleet, and deposit every partial. Determinism
// note: nothing here orders the result — DistPass folds deposits in
// pinned shard order and drops duplicates, so retries, hedges, node
// loss, repairs and arrival order cannot change a single output bit.
func (c *Coordinator) RunPass(p *core.DistPass) error {
	type task struct{ lo, hi int }
	var tasks []task
	for lo := 0; lo < p.NumShards(); lo += c.opts.ShardsPerTask {
		tasks = append(tasks, task{lo, min(lo+c.opts.ShardsPerTask, p.NumShards())})
	}
	c.bump(func(r *Report) { r.Passes++; r.Tasks += len(tasks) })
	mFleetPasses.Inc()
	mFleetTasks.Add(int64(len(tasks)))

	limit := 1
	if len(c.nodes) > 0 {
		limit = 2 * len(c.nodes)
	}
	sem := make(chan struct{}, limit)
	errs := make([]error, len(tasks))
	var wg, inflight sync.WaitGroup
	for i, tk := range tasks {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, tk task) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = c.runTask(p, &inflight, i, tk.lo, tk.hi)
		}(i, tk)
	}
	wg.Wait()
	// Hedge losers may still be in flight; their deposits are legal only
	// while the pass is live, so the pass does not end until they finish.
	inflight.Wait()
	c.bump(func(r *Report) { r.Duplicates += p.Duplicates() })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// crossSelected picks the deterministic fraction of task blocks to
// double-issue: pure in the task index (blocks cycle a fixed 0..99
// grid), so a re-run or resume cross-checks the same blocks.
func (c *Coordinator) crossSelected(taskIdx int) bool {
	f := c.opts.CrossCheck
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	return float64(taskIdx%100) < f*100
}

// runTask drives one task block to completion: ring attempts over the
// fleet with lease deadlines, backoff and hedging (or cross-checked
// double-issue), then coordinator-local degradation once retries are
// exhausted.
func (c *Coordinator) runTask(p *core.DistPass, inflight *sync.WaitGroup, taskIdx, shardLo, shardHi int) error {
	req := taskRequest{
		Corpus:  c.opts.Corpus,
		View:    p.View(),
		BlobURL: c.opts.BlobURL,
		Jobs:    p.Jobs(),
		ShardLo: shardLo,
		ShardHi: shardHi,
	}
	crosscheck := c.crossSelected(taskIdx) && len(c.nodes) >= 2
	for a := 0; a <= c.opts.Retries && len(c.nodes) > 0; a++ {
		if a > 0 {
			c.bump(func(r *Report) { r.Retries++ })
			mFleetRetries.Inc()
			time.Sleep(c.opts.Backoff << uint(a-1))
		}
		var err error
		if crosscheck {
			err = c.crossCheckedAttempt(p, req, taskIdx, a)
		} else {
			err = c.hedgedAttempt(p, inflight, req, taskIdx, a)
		}
		if err == nil {
			c.bump(func(r *Report) { r.Remote++ })
			mFleetRemote.Inc()
			return nil
		}
	}
	// Graceful degradation: the fleet is gone (or was never there, or is
	// quarantined); the coordinator computes the block itself, through
	// the same wire jobs.
	parts, err := p.Compute(shardLo, shardHi)
	if err != nil {
		return err
	}
	for _, sp := range parts {
		if err := p.Deposit(sp); err != nil {
			return err
		}
	}
	c.bump(func(r *Report) { r.Local++ })
	mFleetLocal.Inc()
	return nil
}

// hedgedAttempt issues attempt a of a task to its ring-primary node and,
// if the primary dawdles past the hedge delay, races a secondary on the
// next node. First success wins; a losing deposit is deduped by the
// fold. The pass-level inflight group keeps stragglers inside the pass.
func (c *Coordinator) hedgedAttempt(p *core.DistPass, inflight *sync.WaitGroup, req taskRequest, taskIdx, a int) error {
	primary := c.nodes[(taskIdx+a)%len(c.nodes)]
	res := make(chan error, 2)
	inflight.Add(1)
	go func() {
		defer inflight.Done()
		res <- c.attempt(p, primary, req)
	}()
	launched := 1
	if c.opts.Hedge > 0 && len(c.nodes) > 1 {
		timer := time.NewTimer(c.opts.Hedge)
		select {
		case err := <-res:
			timer.Stop()
			return err
		case <-timer.C:
			secondary := c.nodes[(taskIdx+a+1)%len(c.nodes)]
			c.bump(func(r *Report) { r.Hedges++ })
			mFleetHedges.Inc()
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				res <- c.attempt(p, secondary, req)
			}()
			launched = 2
		}
	}
	var firstErr error
	for i := 0; i < launched; i++ {
		if err := <-res; err == nil {
			return nil
		} else if firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// crossCheckedAttempt double-issues a task to two distinct ring nodes
// and compares their partials bit for bit — nothing is deposited until
// the copies agree, so a lying node's bytes never touch the fold. A
// disagreement is adjudicated against the coordinator's own compute
// (the corpus owner is the quorum of last resort): whichever node
// differs from the local truth is quarantined, and the attempt fails so
// the task re-issues through the normal retry ring.
func (c *Coordinator) crossCheckedAttempt(p *core.DistPass, req taskRequest, taskIdx, a int) error {
	n := len(c.nodes)
	primary := c.nodes[(taskIdx+a)%n]
	witness := c.nodes[(taskIdx+a+1)%n]
	c.bump(func(r *Report) { r.CrossChecks++ })
	mFleetCrossChecks.Inc()
	var wres taskResponse
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wres, werr = c.guardedCall(witness, req)
	}()
	pres, perr := c.guardedCall(primary, req)
	wg.Wait()
	if perr != nil {
		return perr
	}
	if werr != nil {
		return werr
	}
	if reflect.DeepEqual(pres.Partials, wres.Partials) {
		for _, sp := range pres.Partials {
			if derr := p.Deposit(sp); derr != nil {
				c.bump(func(r *Report) { r.Rejected++ })
				mFleetRejected.Inc()
				return derr
			}
		}
		return nil
	}
	c.bump(func(r *Report) { r.Mismatches++ })
	mFleetMismatches.Inc()
	truth, err := p.Compute(req.ShardLo, req.ShardHi)
	if err != nil {
		return err
	}
	liars := 0
	for _, cand := range []struct {
		node *workerNode
		resp taskResponse
	}{{primary, pres}, {witness, wres}} {
		if !reflect.DeepEqual(cand.resp.Partials, truth) {
			c.quarantine(cand.node)
			liars++
		}
	}
	return fmt.Errorf("cluster: cross-check mismatch on task %d: %d node(s) quarantined", taskIdx, liars)
}

// quarantine permanently bars a node from this campaign and trips its
// breaker, so the quarantine is visible in the same vocabulary as every
// other node failure (Breakers() reports it open).
func (c *Coordinator) quarantine(node *workerNode) {
	if node.quarantined.Swap(true) {
		return
	}
	c.bump(func(r *Report) { r.Quarantined++ })
	mFleetQuarantines.Inc()
	now := time.Now()
	for i := 0; i < 64 && node.br.Allow(now); i++ {
		node.br.Record(false, now)
	}
}

// attempt runs one leased call against one node and deposits its
// partials. Any failure — breaker refusal, transport error, lease
// expiry, digest mismatch, divergent replica, shape rejection — leaves
// the fold untouched for this block (valid earlier shards may land; a
// re-delivery of them is deduped).
func (c *Coordinator) attempt(p *core.DistPass, node *workerNode, req taskRequest) error {
	resp, err := c.guardedCall(node, req)
	if err != nil {
		return err
	}
	for _, sp := range resp.Partials {
		if derr := p.Deposit(sp); derr != nil {
			c.bump(func(r *Report) { r.Rejected++ })
			mFleetRejected.Inc()
			return derr
		}
	}
	return nil
}

// guardedCall wraps call with the node's quarantine flag and breaker,
// classifies the failure for the report, and records the outcome on the
// breaker.
func (c *Coordinator) guardedCall(node *workerNode, req taskRequest) (taskResponse, error) {
	if node.quarantined.Load() {
		c.bump(func(r *Report) { r.Skips++ })
		mFleetSkips.Inc()
		return taskResponse{}, errQuarantined
	}
	if !node.br.Allow(time.Now()) {
		c.bump(func(r *Report) { r.Skips++ })
		mFleetSkips.Inc()
		return taskResponse{}, errBreakerOpen
	}
	resp, err := c.call(node, req)
	switch {
	case err == nil:
		if resp.Repaired > 0 {
			c.bump(func(r *Report) { r.Repairs += resp.Repaired })
			mFleetRepairs.Add(int64(resp.Repaired))
		}
	case errors.As(err, &errDivergent{}):
		c.bump(func(r *Report) { r.Divergent++ })
		mFleetDivergent.Inc()
	case errors.As(err, &errCorrupt{}):
		c.bump(func(r *Report) { r.Rejected++ })
		mFleetRejected.Inc()
	}
	node.br.Record(err == nil, time.Now())
	return resp, err
}

// call performs one framed, leased HTTP round trip.
func (c *Coordinator) call(node *workerNode, req taskRequest) (taskResponse, error) {
	body, err := seal(req)
	if err != nil {
		return taskResponse{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Lease)
	defer cancel()
	start := time.Now()
	defer func() { taskRTT(node.url).Observe(time.Since(start).Seconds()) }()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, node.url+"/task", bytes.NewReader(body))
	if err != nil {
		return taskResponse{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() != nil {
			mFleetLeaseExpiries.Inc()
		}
		return taskResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		if resp.StatusCode == statusDivergent {
			return taskResponse{}, errDivergent{fmt.Sprintf("worker %s: %s", node.url, bytes.TrimSpace(msg))}
		}
		return taskResponse{}, fmt.Errorf("cluster: worker %s: %s: %s", node.url, resp.Status, bytes.TrimSpace(msg))
	}
	var tr taskResponse
	if err := open(resp.Body, maxFrameBytes, &tr); err != nil {
		return taskResponse{}, err
	}
	return tr, nil
}
