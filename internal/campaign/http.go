package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"falcondown/internal/obs"
)

// maxSpecBytes bounds a submission body; a Spec is a flat scalar struct,
// so anything beyond this is garbage, not a big campaign.
const maxSpecBytes = 1 << 16

// maxLongPoll caps the events long-poll wait.
const maxLongPoll = 60 * time.Second

// Handler returns the server's HTTP API:
//
//	POST /campaigns                     submit a Spec        -> 201 {id}
//	GET  /campaigns                     list snapshots
//	GET  /campaigns/{id}                one snapshot
//	DELETE /campaigns/{id}              cancel -> 200 snapshot (409 if terminal)
//	GET  /campaigns/{id}/events?after=N&wait=S   long-poll progress
//	  (with Accept: text/event-stream: SSE push until terminal)
//	GET  /campaigns/{id}/result         result.json when done (409 otherwise)
//	GET  /campaigns/{id}/key            canonical key.json bytes when done
//	GET  /healthz                       liveness + queue depth
//
// Submission errors map to: 400 (invalid spec), 429 + Retry-After (tenant
// quota), 503 + Retry-After (queue full).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /campaigns", s.handleSubmit)
	mux.HandleFunc("GET /campaigns", s.handleList)
	mux.HandleFunc("GET /campaigns/{id}", s.handleGet)
	mux.HandleFunc("DELETE /campaigns/{id}", s.handleCancel)
	mux.HandleFunc("GET /campaigns/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /campaigns/{id}/result", s.handleResult)
	mux.HandleFunc("GET /campaigns/{id}/key", s.handleKey)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, "unparseable spec: "+err.Error())
		return
	}
	c, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, c.Snapshot())
	case errors.Is(err, ErrTenantQuota), errors.Is(err, ErrDiskQuota):
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "30")
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		writeError(w, http.StatusBadRequest, err.Error())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

// campaignFor resolves {id} or replies 404.
func (s *Server) campaignFor(w http.ResponseWriter, r *http.Request) (*Campaign, bool) {
	c, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such campaign")
	}
	return c, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, c.Snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	snap, err := s.Cancel(c.ID)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, snap)
	case errors.Is(err, ErrTerminal):
		writeJSON(w, http.StatusConflict, snap)
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// eventsBody is the long-poll response: the events past the requested
// cursor, the cursor to pass next, and the current status so a poller can
// stop once the campaign is terminal without a second request.
type eventsBody struct {
	Events []Event `json:"events"`
	Next   int     `json:"next"`
	Status string  `json:"status"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	after := 0
	if v := r.URL.Query().Get("after"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "after must be a non-negative integer")
			return
		}
		after = n
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamEvents(w, r, c, after)
		return
	}
	// A closed event log takes no further events, so blocking would only
	// run the poll timeout down — answer immediately instead. A terminal
	// campaign whose terminal event is still to come (it is appended
	// after the flight record) is waited for like a running one. The
	// status is re-read after any wait so a poller that was woken by the
	// final event sees the terminal status in the same response.
	var events []Event
	if v := r.URL.Query().Get("wait"); v != "" && !c.EventsClosed() {
		secs, err := strconv.Atoi(v)
		if err != nil || secs < 0 {
			writeError(w, http.StatusBadRequest, "wait must be a non-negative integer (seconds)")
			return
		}
		wait := min(time.Duration(secs)*time.Second, maxLongPoll)
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		events = c.WaitEvents(ctx, after)
		cancel()
	} else {
		events = c.Events(after)
	}
	next := after
	if n := len(events); n > 0 {
		next = events[n-1].Seq
	}
	writeJSON(w, http.StatusOK, eventsBody{Events: events, Next: next, Status: c.Status()})
}

// streamEvents serves the campaign's progress as Server-Sent Events, the
// push alternative to the long-poll: each Event is one SSE frame
// (id = Seq, event = Type, data = the Event JSON), and the stream closes
// with an "end" frame carrying the terminal status once the campaign
// finishes. A reconnecting client resumes with ?after=<last id>.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, c *Campaign, after int) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "response writer cannot stream")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	emit := func(evs []Event) {
		for _, e := range evs {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
			after = e.Seq
		}
		if len(evs) > 0 {
			fl.Flush()
		}
	}
	for {
		closed := c.EventsClosed()
		emit(c.Events(after))
		if closed {
			// Every event is out, the terminal one included.
			fmt.Fprintf(w, "event: end\ndata: %q\n\n", c.Status())
			fl.Flush()
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), maxLongPoll)
		evs := c.WaitEvents(ctx, after)
		cancel()
		if len(evs) == 0 {
			if r.Context().Err() != nil {
				return // client went away
			}
			// Idle keep-alive comment so proxies do not cut the stream.
			fmt.Fprint(w, ": keepalive\n\n")
			fl.Flush()
			continue
		}
		emit(evs)
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	if st := c.Status(); st != StatusDone {
		writeJSON(w, http.StatusConflict, c.Snapshot())
		return
	}
	data, err := s.store.LoadResult(c.ID)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusConflict, "result not yet persisted")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (s *Server) handleKey(w http.ResponseWriter, r *http.Request) {
	c, ok := s.campaignFor(w, r)
	if !ok {
		return
	}
	if st := c.Status(); st != StatusDone {
		writeJSON(w, http.StatusConflict, c.Snapshot())
		return
	}
	data, err := s.store.LoadKey(c.ID)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			writeError(w, http.StatusConflict, "key not yet persisted")
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

type healthBody struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision,omitempty"`
	Queued        int     `json:"queued"`
	Campaigns     int     `json:"campaigns"`
	// Fleet carries process-wide fleet counters (tasks, retries, repairs,
	// quarantines) when the daemon runs with a worker fleet attached.
	Fleet map[string]int64 `json:"fleet,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var fleet map[string]int64
	if s.cfg.HealthExtra != nil {
		fleet = s.cfg.HealthExtra()
	}
	writeJSON(w, http.StatusOK, healthBody{
		Status:        "ok",
		UptimeSeconds: obs.Uptime(),
		GoVersion:     runtime.Version(),
		Revision:      obs.BuildRevision(),
		Queued:        s.QueueDepth(),
		Campaigns:     len(s.List()),
		Fleet:         fleet,
	})
}
