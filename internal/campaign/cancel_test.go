package campaign

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// doDelete issues DELETE /campaigns/{id}.
func doDelete(t *testing.T, url, id string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/campaigns/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCancelQueuedCampaignFreesQuota(t *testing.T) {
	// Not started: the campaign stays queued, so DELETE takes the direct
	// terminal path and the tenant slot must free immediately.
	root := t.TempDir()
	srv, err := Open(root, Config{TenantMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postSpec(t, ts.URL, e2eSpec())
	snap := decodeBody[Snapshot](t, resp)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}

	resp = doDelete(t, ts.URL, snap.ID)
	got := decodeBody[Snapshot](t, resp)
	if resp.StatusCode != http.StatusOK || got.Status != StatusCancelled {
		t.Fatalf("cancel: %s %+v, want 200 cancelled", resp.Status, got)
	}

	// The quota slot freed: the same tenant submits again at TenantMax 1.
	resp = postSpec(t, ts.URL, e2eSpec())
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-cancel submit: %s, want 201 (quota slot not freed)", resp.Status)
	}

	// Cancelling again is a conflict; unknown IDs are 404.
	resp = doDelete(t, ts.URL, snap.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel: %s, want 409", resp.Status)
	}
	resp = doDelete(t, ts.URL, "c009999")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown: %s, want 404", resp.Status)
	}

	// A cancelled queue entry is dropped, not run: start the server and
	// confirm the campaign never leaves its terminal state.
	srv.Start()
	killAtCleanup(t, srv)
	time.Sleep(50 * time.Millisecond)
	if c, _ := srv.Get(snap.ID); c.Status() != StatusCancelled {
		t.Fatalf("cancelled campaign went %q after Start", c.Status())
	}
}

func TestCancelRunningCampaign(t *testing.T) {
	root := t.TempDir()
	srv, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	killAtCleanup(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A trace budget far beyond what the test waits for keeps the
	// campaign mid-acquisition when the cancel lands.
	spec := e2eSpec()
	spec.Traces = 2_000_000
	resp := postSpec(t, ts.URL, spec)
	snap := decodeBody[Snapshot](t, resp)

	c, ok := srv.Get(snap.ID)
	if !ok {
		t.Fatal("campaign vanished")
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Status() != StatusAcquiring {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started acquiring: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp = doDelete(t, ts.URL, snap.ID)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel running: %s, want 200", resp.Status)
	}
	if st := waitStatus(t, c); st != StatusCancelled {
		t.Fatalf("cancelled campaign ended %q", st)
	}

	// The terminal event is in the stream, and the terminal state is
	// durable: a restarted server lists the campaign as cancelled and does
	// NOT re-adopt it.
	var sawEvent bool
	for _, e := range c.Events(0) {
		if e.Type == EventCancelled {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatalf("no %q event in %+v", EventCancelled, c.Events(0))
	}
	srv.Kill()
	stopServer(t, srv)
	srv2, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if adopted := srv2.Adopted(); len(adopted) != 0 {
		t.Fatalf("restart re-adopted cancelled campaign(s) %v", adopted)
	}
	c2, ok := srv2.Get(snap.ID)
	if !ok || c2.Status() != StatusCancelled {
		t.Fatalf("restarted server sees status %q, want cancelled", c2.Status())
	}
}

func TestCancelDistinctFromShutdown(t *testing.T) {
	// A graceful Stop also cancels the runner context, but must leave the
	// campaign re-adoptable — only DELETE may make it terminal.
	root := t.TempDir()
	srv, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	spec := e2eSpec()
	spec.Traces = 2_000_000
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for c.Status() != StatusAcquiring {
		if time.Now().After(deadline) {
			t.Fatalf("campaign never started acquiring: %+v", c.Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if st := c.Status(); terminal(st) {
		t.Fatalf("graceful shutdown made the campaign terminal (%q); only DELETE may", st)
	}
	srv2, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if adopted := srv2.Adopted(); len(adopted) != 1 {
		t.Fatalf("restart adopted %v, want the stopped campaign", adopted)
	}
}
