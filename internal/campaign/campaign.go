package campaign

import (
	"context"
	"sync"
)

// Campaign statuses. A status names where the campaign is in its
// lifecycle; "acquiring" and "attacking" are the in-flight states a
// restarted server re-adopts from their durable artifacts (salvageable
// corpus, checkpoint sidecar).
const (
	StatusQueued    = "queued"
	StatusAcquiring = "acquiring"
	StatusAttacking = "attacking"
	StatusDone      = "done"
	StatusFailed    = "failed"
	StatusCancelled = "cancelled"
)

// terminal reports whether a status is final.
func terminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCancelled
}

// Campaign is one submitted attack campaign: the immutable spec plus the
// mutable runtime state the server tracks and persists.
type Campaign struct {
	// ID is the server-assigned identifier ("c000001", ...), doubling as
	// the store directory name.
	ID string
	// Spec is the normalized submission.
	Spec Spec

	// seq is the admission order, the FIFO tie-break within a priority.
	seq int
	// dir is the campaign's store directory.
	dir string
	// adopted marks a campaign re-admitted from disk by a restarted
	// server rather than submitted over the API.
	adopted bool
	// diskCharge is the tenant disk-quota bytes currently accounted to
	// this campaign (estimate while in flight, measured footprint once
	// settled). Guarded by Server.mu, not c.mu.
	diskCharge int64

	log *eventLog

	mu       sync.Mutex
	status   string
	phase    string // last completed attack phase
	acquired int    // traces durable so far
	errMsg   string
	// cancel aborts the campaign's runner context once it is executing;
	// cancelReq distinguishes a per-campaign cancellation from a
	// whole-server shutdown (both surface as context.Canceled).
	cancel    context.CancelFunc
	cancelReq bool
}

// begin registers the runner's cancel function, or refuses when the
// campaign reached a terminal state (e.g. cancelled while still queued)
// between pop and start.
func (c *Campaign) begin(cancel context.CancelFunc) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if terminal(c.status) {
		return false
	}
	c.cancel = cancel
	if c.cancelReq {
		// Cancelled in the pop→begin window: start already aborted.
		cancel()
	}
	return true
}

// cancelRequested reports whether a per-campaign cancel was asked for.
func (c *Campaign) cancelRequested() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelReq
}

// Snapshot is a point-in-time view of a campaign's state, JSON-shaped for
// the status endpoints.
type Snapshot struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Name     string `json:"name,omitempty"`
	Priority int    `json:"priority,omitempty"`
	Status   string `json:"status"`
	// Phase is the last completed attack phase (empty until the first
	// checkpoint lands).
	Phase string `json:"phase,omitempty"`
	// Acquired counts traces durable in the campaign's corpus.
	Acquired int `json:"acquired"`
	Traces   int `json:"traces"`
	// Adopted marks a campaign re-admitted from disk after a restart.
	Adopted bool   `json:"adopted,omitempty"`
	Error   string `json:"error,omitempty"`
}

// Snapshot returns the campaign's current state.
func (c *Campaign) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Snapshot{
		ID:       c.ID,
		Tenant:   c.Spec.Tenant,
		Name:     c.Spec.Name,
		Priority: c.Spec.Priority,
		Status:   c.status,
		Phase:    c.phase,
		Acquired: c.acquired,
		Traces:   c.Spec.Traces,
		Adopted:  c.adopted,
		Error:    c.errMsg,
	}
}

// Status returns the current lifecycle status.
func (c *Campaign) Status() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.status
}

// Events returns the events with sequence numbers greater than after.
func (c *Campaign) Events(after int) []Event {
	return c.log.Since(after)
}

// WaitEvents blocks until at least one event past after exists, the
// event log closes or the context ends, then returns whatever is
// available (possibly empty) — the long-poll primitive behind
// GET /campaigns/{id}/events.
func (c *Campaign) WaitEvents(ctx context.Context, after int) []Event {
	return c.log.Wait(ctx, after)
}

// EventsClosed reports whether the campaign's event log is complete: the
// campaign is terminal and its terminal event, if it emits one here, is
// in. A campaign found terminal on disk at Open starts closed.
func (c *Campaign) EventsClosed() bool { return c.log.isClosed() }

// state is the persisted slice of the runtime state (state.json); the
// spec is stored separately so state rewrites stay small and the spec
// file is immutable after creation.
type state struct {
	Status   string `json:"status"`
	Phase    string `json:"phase,omitempty"`
	Acquired int    `json:"acquired,omitempty"`
	Error    string `json:"error,omitempty"`
}

// setState updates the in-memory state; the caller persists separately
// (the runner owns the persist-then-announce ordering).
func (c *Campaign) setState(status, phase string, errMsg string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.status = status
	if phase != "" {
		c.phase = phase
	}
	if errMsg != "" {
		c.errMsg = errMsg
	}
}

// setAcquired updates the durable trace count.
func (c *Campaign) setAcquired(count int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acquired = count
}

// currentState snapshots the persistable slice of the state.
func (c *Campaign) currentState() state {
	c.mu.Lock()
	defer c.mu.Unlock()
	return state{Status: c.status, Phase: c.phase, Acquired: c.acquired, Error: c.errMsg}
}
