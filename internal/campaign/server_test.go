package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"falcondown/internal/core"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
)

// e2eSpec is the smoke-proven full-recovery configuration: the degree-8
// victim at noise sigma 1.5 with 1200 traces recovers the exact key, and
// the seed derivation (key=1, device=2, acquisition=3) matches the
// supervised end-to-end suite.
func e2eSpec() Spec {
	return Spec{N: 8, Traces: 1200, Noise: 1.5, Seed: 1, Workers: 1}
}

// waitStatus polls a campaign until it reaches a terminal state.
func waitStatus(t *testing.T, c *Campaign) string {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if st := c.Status(); terminal(st) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish: %+v", c.ID, c.Snapshot())
	return ""
}

func postSpec(t *testing.T, url string, spec any) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return v
}

func TestServerEndToEndOverHTTP(t *testing.T) {
	srv, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	killAtCleanup(t, srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postSpec(t, ts.URL, e2eSpec())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: %s", resp.Status)
	}
	snap := decodeBody[Snapshot](t, resp)
	if snap.ID == "" || snap.Status != StatusQueued {
		t.Fatalf("snapshot = %+v", snap)
	}

	// The result is unavailable while the campaign runs.
	resp, err = http.Get(ts.URL + "/campaigns/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("early result fetch: %s, want 409", resp.Status)
	}

	// Long-poll the event stream to the end.
	after, sawPhases, status := 0, map[string]bool{}, ""
	deadline := time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("campaign did not finish")
		}
		resp, err := http.Get(fmt.Sprintf("%s/campaigns/%s/events?after=%d&wait=5", ts.URL, snap.ID, after))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("events: %s", resp.Status)
		}
		body := decodeBody[eventsBody](t, resp)
		for _, e := range body.Events {
			if e.Type == EventPhase {
				sawPhases[e.Phase] = true
				if e.Beam <= 0 {
					t.Errorf("phase %s reported beam %d", e.Phase, e.Beam)
				}
			}
		}
		after, status = body.Next, body.Status
		if terminal(status) && len(body.Events) == 0 {
			break
		}
	}
	if status != StatusDone {
		t.Fatalf("campaign ended %q: %+v", status, srv.List())
	}
	for _, stage := range []string{core.StageExponents, core.StageMantissa, core.StageSigns, core.StageStragglers} {
		if !sawPhases[stage] {
			t.Errorf("no phase event for %s (saw %v)", stage, sawPhases)
		}
	}

	// The result carries a verified forgery and the exact key.
	resp, err = http.Get(ts.URL + "/campaigns/" + snap.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %s", resp.Status)
	}
	res := decodeBody[Result](t, resp)
	if res.Status != StatusDone || len(res.Signature) == 0 || res.Message == "" {
		t.Fatalf("result = %+v", res)
	}

	// The key endpoint serves the canonical KeyJSON bytes of the victim's
	// true secret key — the attack recovered it exactly.
	priv, _, err := falcon.GenerateKey(8, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	want := core.KeyJSON(priv.Fs, priv.Gs)
	resp, err = http.Get(ts.URL + "/campaigns/" + snap.ID + "/key")
	if err != nil {
		t.Fatal(err)
	}
	got := new(bytes.Buffer)
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("key: %s", resp.Status)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("key endpoint served %q, want the victim's true key %q", got.Bytes(), want)
	}
}

func TestSubmitValidationOverHTTP(t *testing.T) {
	srv, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately not started: validation happens at admission.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		spec map[string]any
	}{
		{"negative workers", map[string]any{"n": 8, "traces": 100, "seed": 1, "workers": -3}},
		{"absurd workers", map[string]any{"n": 8, "traces": 100, "seed": 1, "workers": 100000}},
		{"no traces", map[string]any{"n": 8, "seed": 1}},
		{"unknown field", map[string]any{"n": 8, "traces": 100, "bogus": true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postSpec(t, ts.URL, tc.spec)
			eb := decodeBody[errorBody](t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %s, want 400 (%+v)", resp.Status, eb)
			}
			if eb.Error == "" {
				t.Fatal("400 without an error message")
			}
		})
	}

	resp, err := http.Get(ts.URL + "/campaigns/c000042")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown campaign: %s, want 404", resp.Status)
	}
}

func TestTenantQuotaAndQueueBackpressure(t *testing.T) {
	// Not started: everything stays queued, so admission control is
	// exercised deterministically.
	srv, err := Open(t.TempDir(), Config{TenantMax: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := func(tenant string) map[string]any {
		return map[string]any{"tenant": tenant, "n": 8, "traces": 100, "seed": 1}
	}

	resp := postSpec(t, ts.URL, spec("alice"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %s", resp.Status)
	}

	// Same tenant again: the per-tenant quota trips first (429).
	resp = postSpec(t, ts.URL, spec("alice"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("quota submit: %s, want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	eb := decodeBody[errorBody](t, resp)
	if !strings.Contains(eb.Error, "quota") {
		t.Errorf("429 error %q does not mention the quota", eb.Error)
	}

	// A different tenant hits the full queue instead (503).
	resp = postSpec(t, ts.URL, spec("bob"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("backpressure submit: %s, want 503", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	eb = decodeBody[errorBody](t, resp)
	if !strings.Contains(eb.Error, "queue") {
		t.Errorf("503 error %q does not mention the queue", eb.Error)
	}

	// Health reflects the backlog.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := decodeBody[healthBody](t, hresp)
	if hb.Status != "ok" || hb.Queued != 1 || hb.Campaigns != 1 {
		t.Fatalf("health = %+v", hb)
	}
}

func TestTerminalEventIsLastAct(t *testing.T) {
	// A client that sees the terminal event must find every file of the
	// campaign in place, the flight record included, and no later event.
	srv, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	killAtCleanup(t, srv)
	c, err := srv.Submit(e2eSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	after := 0
	for {
		evs := c.WaitEvents(ctx, after)
		if ctx.Err() != nil {
			t.Fatalf("no terminal event: %+v", c.Snapshot())
		}
		if len(evs) == 0 {
			continue
		}
		last := evs[len(evs)-1]
		after = last.Seq
		if !terminal(last.Type) {
			continue
		}
		if last.Type != EventDone {
			t.Fatalf("campaign ended with %+v", last)
		}
		for _, f := range []string{obsFile, resultFile, keyFile} {
			if _, err := os.Stat(filepath.Join(srv.Store().Dir(c.ID), f)); err != nil {
				t.Fatalf("terminal event seen before %s was written: %v", f, err)
			}
		}
		break
	}
	// The log closes after the terminal event and takes nothing more.
	if evs := c.WaitEvents(ctx, after); len(evs) != 0 || !c.EventsClosed() {
		t.Fatalf("events after the terminal one: %+v (closed %v)", evs, c.EventsClosed())
	}
}
