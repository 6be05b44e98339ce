package campaign

import (
	"context"
	"sync"
)

// Event types, in roughly the order a healthy campaign emits them.
const (
	EventQueued    = "queued"    // admitted to the queue
	EventAdopted   = "adopted"   // re-admitted from disk after a restart
	EventAcquire   = "acquire"   // acquisition progress (Count traces durable)
	EventAcquired  = "acquired"  // corpus complete (Suspects/Breakers set when supervised)
	EventAttacking = "attacking" // extraction started (or resumed)
	EventPhase     = "phase"     // attack phase completed (Phase, Beam)
	EventFleet     = "fleet"     // distributed-attack fleet report (Msg)
	EventDone      = "done"      // result + key available
	EventFailed    = "failed"    // terminal failure (Msg)
	EventCancelled = "cancelled" // terminal cancellation by request
)

// Event is one progress record of a campaign. Sequence numbers start at 1
// and are dense; they restart when a server restart re-adopts the
// campaign (the log is in-memory — durable state lives in the store, and
// a long-poller that reconnects after a restart starts from after=0
// again).
type Event struct {
	Seq  int    `json:"seq"`
	Type string `json:"type"`
	// Phase is the completed attack phase for EventPhase.
	Phase string `json:"phase,omitempty"`
	// Beam is the mantissa candidate beam width (TopK) in effect for the
	// completed phase.
	Beam int `json:"beam,omitempty"`
	// Count is the durable trace count for EventAcquire/EventAcquired.
	Count int `json:"count,omitempty"`
	// Suspects counts observations flagged by the write-time quality gate
	// (supervised acquisition only).
	Suspects int `json:"suspects,omitempty"`
	// Breakers summarizes the device circuit-breaker states (supervised
	// acquisition only).
	Breakers string `json:"breakers,omitempty"`
	Msg      string `json:"msg,omitempty"`
}

// fleetReporter is the loose coupling to internal/cluster: a Distributor
// that can summarize its fleet counters (retries, repairs, cross-check
// verdicts, quarantines) gets its line recorded as an EventFleet after a
// distributed attack, without this package importing the cluster layer.
type fleetReporter interface {
	Summary() string
}

// eventLog is an append-only in-memory progress log with broadcast
// wake-ups for long-polling readers. It is closed once the campaign is
// terminal and its terminal event is in: nothing is appended after that.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// append assigns the next sequence number, records the event and wakes
// every waiting long-poller.
func (l *eventLog) append(e Event) {
	l.mu.Lock()
	e.Seq = len(l.events) + 1
	l.events = append(l.events, e)
	close(l.wake)
	l.wake = make(chan struct{})
	l.mu.Unlock()
}

// close marks the log complete and wakes every waiting long-poller.
func (l *eventLog) close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.wake)
		l.wake = make(chan struct{})
	}
	l.mu.Unlock()
}

// isClosed reports whether the log is complete.
func (l *eventLog) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// Since returns the events with sequence numbers greater than after.
func (l *eventLog) Since(after int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after >= len(l.events) {
		return nil
	}
	out := make([]Event, len(l.events)-after)
	copy(out, l.events[after:])
	return out
}

// Wait blocks until an event past after exists, the log closes or ctx
// ends, then returns what is available.
func (l *eventLog) Wait(ctx context.Context, after int) []Event {
	for {
		l.mu.Lock()
		if after < len(l.events) {
			out := make([]Event, len(l.events)-after)
			copy(out, l.events[after:])
			l.mu.Unlock()
			return out
		}
		if l.closed {
			l.mu.Unlock()
			return nil
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil
		}
	}
}
