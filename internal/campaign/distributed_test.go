package campaign

import (
	"bytes"
	"net/http/httptest"
	"os"
	"testing"

	"falcondown/internal/cluster"
	"falcondown/internal/core"
	"falcondown/internal/tracestore"
)

func TestDistributedCampaignBytesIdenticalToLocal(t *testing.T) {
	// The same spec, run once locally and once over a one-node fleet
	// sharing the store root, must leave byte-identical result.json,
	// key.json and attack sidecar — the Distributed flag is a placement
	// preference, never a semantic one.
	runOnce := func(distributed bool) (result, key, sidecar []byte) {
		root := t.TempDir()
		cfg := Config{}
		if distributed {
			fleet := httptest.NewServer(cluster.NewWorker(root).Handler())
			defer fleet.Close()
			cfg.Distributor = func(corpus string, src *tracestore.Corpus) core.Distributor {
				return cluster.New(cluster.Options{Workers: []string{fleet.URL}, Corpus: corpus})
			}
		}
		srv, err := Open(root, cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		killAtCleanup(t, srv)
		spec := e2eSpec()
		spec.Distributed = distributed
		c, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitStatus(t, c); st != StatusDone {
			t.Fatalf("distributed=%v campaign ended %q: %+v", distributed, st, c.Snapshot())
		}
		// A fleet-backed campaign logs the coordinator's report as a fleet
		// event; a local one never does.
		sawFleet := false
		for _, e := range c.Events(0) {
			if e.Type == EventFleet {
				sawFleet = true
			}
		}
		if sawFleet != distributed {
			t.Fatalf("distributed=%v but fleet event present=%v", distributed, sawFleet)
		}
		result, err = srv.Store().LoadResult(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		key, err = srv.Store().LoadKey(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		sidecar, err = os.ReadFile(srv.Store().SidecarPath(c.ID))
		if err != nil {
			t.Fatal(err)
		}
		return result, key, sidecar
	}

	refResult, refKey, refSidecar := runOnce(false)
	gotResult, gotKey, gotSidecar := runOnce(true)
	if !bytes.Equal(gotResult, refResult) {
		t.Error("result.json differs between local and fleet campaigns")
	}
	if !bytes.Equal(gotKey, refKey) {
		t.Error("key.json differs between local and fleet campaigns")
	}
	if !bytes.Equal(gotSidecar, refSidecar) {
		t.Error("attack sidecar differs between local and fleet campaigns")
	}
}

func TestDistributedSpecWithoutFleetRunsLocally(t *testing.T) {
	// Graceful degradation at the service level: a distributed spec on a
	// server with no fleet configured still completes.
	srv, err := Open(t.TempDir(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	killAtCleanup(t, srv)
	spec := e2eSpec()
	spec.Distributed = true
	c, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitStatus(t, c); st != StatusDone {
		t.Fatalf("fleetless distributed campaign ended %q", st)
	}
}
