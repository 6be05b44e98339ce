package campaign

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"falcondown/internal/core"
)

// runReference executes one campaign uninterrupted in a fresh store and
// returns its directory — the byte-comparison target for the kill/restart
// and isolation suites.
func runReference(t *testing.T, spec Spec) string {
	t.Helper()
	srv, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, c); st != StatusDone {
		t.Fatalf("reference campaign ended %q: %+v", st, c.Snapshot())
	}
	stopServer(t, srv)
	return c.dir
}

func stopServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Stop(ctx); err != nil {
		t.Fatalf("server stop: %v", err)
	}
}

// killAtCleanup hard-kills srv when the test ends and then waits for its
// slot goroutines, so none of them still writes into the test's TempDir
// (a flight record, a last state file) when that directory is removed.
func killAtCleanup(t *testing.T, srv *Server) {
	t.Cleanup(func() {
		srv.Kill()
		stopServer(t, srv)
	})
}

// campaignArtifacts are the files whose bytes define a campaign's outcome.
// The checkpoint sidecar is the heart of the contract: an interrupted
// campaign must finish with a sidecar byte-identical to an uninterrupted
// run's.
var campaignArtifacts = []string{traceFile, traceFile + ".ckpt", keyFile, resultFile, pubFile}

func compareArtifacts(t *testing.T, refDir, gotDir string) {
	t.Helper()
	for _, name := range campaignArtifacts {
		want, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Fatalf("candidate %s: %v", name, err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from the uninterrupted reference (%d vs %d bytes)",
				name, len(got), len(want))
		}
	}
}

// TestRestartMidAttack kills the server between attack phases — after the
// exponent-phase checkpoint landed — restarts it over the same store, and
// proves the re-adopted campaign resumes from the sidecar and finishes
// with artifacts byte-identical to an uninterrupted run.
func TestRestartMidAttack(t *testing.T) {
	spec := e2eSpec()
	refDir := runReference(t, spec)

	root := t.TempDir()
	srv, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hooks.set(nil, func(id, stage string) {
		if stage == core.StageExponents {
			once.Do(func() { close(reached) })
			<-release
		}
	})
	defer hooks.set(nil, nil)

	srv.Start()
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(120 * time.Second):
		t.Fatal("campaign never reached the exponent checkpoint")
	}
	// Hard kill while the runner is parked on the phase boundary: no
	// graceful finalization, no state rewrite — exactly what a SIGKILL'd
	// daemon leaves behind.
	srv.Kill()
	close(release)
	stopServer(t, srv)
	hooks.set(nil, nil)

	if st := c.Status(); terminal(st) {
		t.Fatalf("killed campaign already terminal (%s)", st)
	}

	// Restart over the same store: the campaign must be re-adopted and
	// driven to completion from its durable artifacts.
	srv2, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	adopted := srv2.Adopted()
	if len(adopted) != 1 || adopted[0] != c.ID {
		t.Fatalf("adopted %v, want [%s]", adopted, c.ID)
	}
	c2, ok := srv2.Get(c.ID)
	if !ok {
		t.Fatalf("campaign %s lost across restart", c.ID)
	}
	if evs := c2.Events(0); len(evs) == 0 || evs[0].Type != EventAdopted {
		t.Fatalf("first event after restart = %+v, want %s", evs, EventAdopted)
	}
	srv2.Start()
	if st := waitStatus(t, c2); st != StatusDone {
		t.Fatalf("re-adopted campaign ended %q: %+v", st, c2.Snapshot())
	}
	stopServer(t, srv2)

	compareArtifacts(t, refDir, c2.dir)
}

// TestRestartMidAcquisition kills the server in the middle of trace
// capture, additionally tears the corpus tail (the crash landed mid-write),
// and proves the restarted server salvages the committed prefix,
// re-acquires the identical remaining observations and finishes with
// byte-identical artifacts.
func TestRestartMidAcquisition(t *testing.T) {
	spec := e2eSpec()
	refDir := runReference(t, spec)

	root := t.TempDir()
	srv, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	reached := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// Trigger past the writer's first 1 MiB buffer flush (~565 of the 1200
	// degree-8 observations) so the kill leaves real committed chunks plus
	// a tail to tear; killing earlier leaves a zero-byte file, which the
	// sub-header salvage path covers (tested in tracestore).
	hooks.set(func(id string, count int) {
		if count >= spec.Traces*3/4 {
			once.Do(func() { close(reached) })
			<-release
		}
	}, nil)
	defer hooks.set(nil, nil)

	srv.Start()
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-reached:
	case <-time.After(120 * time.Second):
		t.Fatal("campaign never reached the acquisition trigger")
	}
	srv.Kill()
	close(release)
	stopServer(t, srv)
	hooks.set(nil, nil)

	// Tear the corpus tail: a crash mid-write leaves a torn final chunk
	// that salvage must discard.
	tracePath := srv.Store().TracePath(c.ID)
	fi, err := os.Stat(tracePath)
	if err != nil {
		t.Fatalf("corpus missing after kill: %v", err)
	}
	if fi.Size() < 64 {
		t.Fatalf("corpus only %d bytes at kill time", fi.Size())
	}
	if err := os.Truncate(tracePath, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	srv2, err := Open(root, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if adopted := srv2.Adopted(); len(adopted) != 1 || adopted[0] != c.ID {
		t.Fatalf("adopted %v, want [%s]", adopted, c.ID)
	}
	c2, _ := srv2.Get(c.ID)
	srv2.Start()
	if st := waitStatus(t, c2); st != StatusDone {
		t.Fatalf("re-adopted campaign ended %q: %+v", st, c2.Snapshot())
	}
	stopServer(t, srv2)

	compareArtifacts(t, refDir, c2.dir)
}

// TestConcurrentCampaignsIsolated runs two different campaigns on two
// slots at once and proves each produces artifacts byte-identical to the
// same campaign run alone on an idle server — no cross-campaign
// contamination through any shared state.
func TestConcurrentCampaignsIsolated(t *testing.T) {
	specA := e2eSpec()
	specA.Tenant = "alice"
	// A second, different victim: the seed/noise/count triple matches the
	// proven public-API recovery scenario (key 11, device 12, traces 13).
	specB := Spec{N: 8, Traces: 1500, Noise: 2.0, Seed: 11, Workers: 1, Tenant: "bob"}

	refA := runReference(t, specA)
	refB := runReference(t, specB)

	srv, err := Open(t.TempDir(), Config{Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ca, err := srv.Submit(specA)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := srv.Submit(specB)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, ca); st != StatusDone {
		t.Fatalf("campaign A ended %q: %+v", st, ca.Snapshot())
	}
	if st := waitStatus(t, cb); st != StatusDone {
		t.Fatalf("campaign B ended %q: %+v", st, cb.Snapshot())
	}
	stopServer(t, srv)

	compareArtifacts(t, refA, ca.dir)
	compareArtifacts(t, refB, cb.dir)
}
