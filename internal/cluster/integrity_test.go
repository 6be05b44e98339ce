package cluster

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"falcondown/internal/faultinject"
	"falcondown/internal/supervise"
	"falcondown/internal/tracestore"
)

// Fleet-integrity differential suite: content-addressed corpora, shard
// push and cross-checked partials, each proven byte-identical to the
// serial reference. A divergent replica carries well-formed wrong bytes —
// every CRC passes — so only the manifest pin (storage) and the
// cross-check (computation) stand between it and a silently wrong key.

// divergentRoot writes a subtly wrong replica of the fixture corpus into
// a fresh root: same campaign name, same shape, every checksum valid.
func divergentRoot(t *testing.T, f *fixture) string {
	t.Helper()
	src, err := tracestore.Open(filepath.Join(f.root, fixtureCorpus))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	if err := faultinject.WriteDivergentReplica(src, filepath.Join(root, fixtureCorpus), 555, 0.25, tracestore.Options{}); err != nil {
		t.Fatal(err)
	}
	return root
}

// blobService serves the fixture's authoritative shards by content digest.
func blobService(t *testing.T, f *fixture) string {
	t.Helper()
	src, err := tracestore.Open(filepath.Join(f.root, fixtureCorpus))
	if err != nil {
		t.Fatal(err)
	}
	blobs := NewBlobServer()
	if err := blobs.Register(src); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(blobs.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

func TestFleetRejectsDivergentReplica(t *testing.T) {
	// A worker whose replica was regenerated wrong must never contribute:
	// with no blob service to repair from, every task it is offered comes
	// back as a typed 409, the coordinator degrades to local compute, and
	// the result does not move a bit.
	f := campaign(t)
	wrong := httptest.NewServer(NewWorker(divergentRoot(t, f)).Handler())
	t.Cleanup(wrong.Close)

	c := New(Options{
		Workers:       []string{wrong.URL},
		Corpus:        fixtureCorpus,
		ShardsPerTask: 2,
		Retries:       1,
		Backoff:       time.Millisecond,
		Breaker:       supervise.BreakerConfig{Threshold: 1000},
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "divergent replica rejected", priv, rep, side)
	r := c.Report()
	if r.Divergent == 0 {
		t.Fatalf("report %+v: the divergent replica was never detected", r)
	}
	if r.Remote != 0 {
		t.Fatalf("report %+v: a divergent worker completed %d task(s)", r, r.Remote)
	}
	if r.Local != r.Tasks {
		t.Fatalf("report %+v: not every task degraded to local", r)
	}
}

func TestFleetRepairsDivergentReplicaByShardPush(t *testing.T) {
	// Same divergent worker, but the coordinator offers its blob service:
	// the worker detects the pin mismatch, pulls the authoritative shard,
	// verifies its digest, and serves every task from the repaired copy.
	f := campaign(t)
	root := divergentRoot(t, f)
	wrong := httptest.NewServer(NewWorker(root).Handler())
	t.Cleanup(wrong.Close)

	c := New(Options{
		Workers:       []string{wrong.URL},
		Corpus:        fixtureCorpus,
		BlobURL:       blobService(t, f),
		ShardsPerTask: 2,
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "repaired replica", priv, rep, side)
	r := c.Report()
	if r.Repairs == 0 {
		t.Fatalf("report %+v: no shard was ever repaired", r)
	}
	if r.Remote != r.Tasks {
		t.Fatalf("report %+v: repair did not restore full remote execution", r)
	}
	if r.Divergent != 0 {
		t.Fatalf("report %+v: a task was rejected despite the blob service", r)
	}
	// The repair landed in the worker's blob cache, digest-named.
	entries, err := os.ReadDir(filepath.Join(root, ".blobcache"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("blob cache missing after repair: %v (%d entries)", err, len(entries))
	}
}

func TestFleetDisklessWorkerServesFromPushedShards(t *testing.T) {
	// A worker with an empty root owns no replica at all; with shard push
	// it joins the fleet cold and completes the whole campaign from
	// fetched, digest-verified shards.
	f := campaign(t)
	diskless := httptest.NewServer(NewWorker(t.TempDir()).Handler())
	t.Cleanup(diskless.Close)

	c := New(Options{
		Workers:       []string{diskless.URL},
		Corpus:        fixtureCorpus,
		BlobURL:       blobService(t, f),
		ShardsPerTask: 2,
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "diskless worker", priv, rep, side)
	r := c.Report()
	if r.Remote != r.Tasks || r.Local != 0 {
		t.Fatalf("report %+v: the diskless worker did not carry the campaign", r)
	}
	if r.Repairs == 0 {
		t.Fatalf("report %+v: no shard was ever pushed", r)
	}
}

func TestFleetCrossCheckQuarantinesLyingNode(t *testing.T) {
	// Storage honest, computation wrong: the lying node's disk replica
	// matches the pin, but a tap perturbs every observation it sweeps, so
	// only cross-checked execution can catch it. With CrossCheck=1 every
	// task runs on two nodes; the first disagreement is adjudicated
	// against a coordinator-local recompute, the liar is quarantined for
	// good, and the work is re-issued — bytes unmoved.
	f := campaign(t)
	liarWorker := NewWorker(f.root)
	liarWorker.Tap = func(src tracestore.Source) tracestore.Source {
		return faultinject.NewDivergentStore(src, 777, 1)
	}
	liar := httptest.NewServer(liarWorker.Handler())
	t.Cleanup(liar.Close)
	honest, _ := startFleet(t, f.root, 1)

	c := New(Options{
		Workers:       []string{liar.URL, honest[0]},
		Corpus:        fixtureCorpus,
		ShardsPerTask: 2,
		CrossCheck:    1,
		Retries:       2,
		Backoff:       time.Millisecond,
		Breaker:       supervise.BreakerConfig{Threshold: 2, OpenFor: time.Minute},
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "cross-checked liar", priv, rep, side)
	r := c.Report()
	if r.CrossChecks == 0 {
		t.Fatalf("report %+v: nothing was ever cross-checked", r)
	}
	if r.Mismatches == 0 {
		t.Fatalf("report %+v: the liar was never caught", r)
	}
	if r.Quarantined != 1 {
		t.Fatalf("report %+v: want exactly one quarantined node", r)
	}
	if r.Retries == 0 {
		t.Fatalf("report %+v: the mismatching task was never re-issued", r)
	}
	q := c.Quarantined()
	if len(q) != 1 || q[0] != liar.URL {
		t.Fatalf("quarantined %v, want exactly [%s]", q, liar.URL)
	}
	// Quarantine speaks the breaker vocabulary: the liar's breaker is
	// wedged open so every surface that reports breaker state agrees.
	liarOpen := false
	for i, st := range c.Breakers() {
		if c.nodes[i].url == liar.URL && st.State == supervise.StateOpen {
			liarOpen = true
		}
	}
	if !liarOpen {
		t.Fatal("the quarantined node's breaker is not open")
	}
}

func TestFleetCrossCheckCleanFleetDepositsOnce(t *testing.T) {
	// Cross-checking an honest fleet costs duplicate compute but must not
	// change a byte or quarantine anyone.
	f := campaign(t)
	urls, _ := startFleet(t, f.root, 2)
	c := New(Options{
		Workers:       urls,
		Corpus:        fixtureCorpus,
		ShardsPerTask: 2,
		CrossCheck:    1,
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "clean cross-checked fleet", priv, rep, side)
	r := c.Report()
	if r.CrossChecks != r.Tasks {
		t.Fatalf("report %+v: CrossCheck=1 must check every task", r)
	}
	if r.Mismatches != 0 || r.Quarantined != 0 {
		t.Fatalf("report %+v: an honest fleet was accused", r)
	}
	if r.Remote != r.Tasks {
		t.Fatalf("report %+v: cross-checked tasks did not complete remotely", r)
	}
}
