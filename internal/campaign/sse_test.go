package campaign

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	id    string
	event string
	data  string
}

// readSSE consumes an SSE stream until the "end" frame (inclusive) and
// returns every frame in order.
func readSSE(t *testing.T, url string) []sseFrame {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE request: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var frames []sseFrame
	var cur sseFrame
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == "end" {
					return frames
				}
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, "id: "):
			cur.id = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	t.Fatalf("SSE stream ended without an end frame (%d frames, scan err %v)", len(frames), sc.Err())
	return nil
}

func TestEventsOverSSE(t *testing.T) {
	srv, err := Open(t.TempDir(), Config{TenantDiskBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	killAtCleanup(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	c, err := srv.Submit(e2eSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Connect while the campaign runs: frames must arrive as they happen
	// and the stream must close itself with the terminal status.
	frames := readSSE(t, ts.URL+"/campaigns/"+c.ID+"/events")
	last := frames[len(frames)-1]
	if last.event != "end" || last.data != `"done"` {
		t.Fatalf("final frame = %+v, want end/done", last)
	}

	// The pushed frames are exactly the long-poll event log: same types,
	// same order, same count.
	events := c.Events(0)
	if len(frames)-1 != len(events) {
		t.Fatalf("SSE pushed %d event frames, the log holds %d", len(frames)-1, len(events))
	}
	for i, e := range events {
		if frames[i].event != e.Type {
			t.Fatalf("frame %d is %q, event log says %q", i, frames[i].event, e.Type)
		}
	}

	// Resume semantics: a reconnect with ?after=<mid-stream id> replays
	// only the suffix.
	mid := events[len(events)/2].Seq
	tail := readSSE(t, ts.URL+"/campaigns/"+c.ID+"/events?after="+strconv.Itoa(mid))
	if len(tail)-1 != len(events)-mid {
		t.Fatalf("after=%d replayed %d events, want %d", mid, len(tail)-1, len(events)-mid)
	}

	// Settled accounting: the tenant's usage is the campaign's measured
	// footprint, not the submission-time estimate.
	want := dirBytes(srv.Store().Dir(c.ID))
	deadline := time.Now().Add(5 * time.Second)
	for srv.TenantDiskUsage("default") != want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := srv.TenantDiskUsage("default"); got != want {
		t.Fatalf("settled usage %d, directory holds %d", got, want)
	}
}
