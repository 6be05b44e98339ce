package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"falcondown/internal/core"
	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/faultinject"
	"falcondown/internal/rng"
	"falcondown/internal/supervise"
	"falcondown/internal/tracestore"
)

// The differential suite at fleet granularity: the same corpus, attacked
// serially on one machine and through coordinator/worker fleets of every
// size under every failure mode, must produce byte-identical sidecars,
// reports, and recovered keys. scripts/smoke.sh lifts the kill case to
// real processes with a real SIGKILL.

// fixture is the shared campaign: a corpus on disk, its public key, and
// the serial single-machine reference the fleet runs diff against.
type fixture struct {
	root    string // worker root; corpus lives at root/traces.fdt2
	pub     *falcon.PublicKey
	refPriv *falcon.PrivateKey
	refRep  *core.RecoveryReport
	refSide []byte
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fix != nil {
		os.RemoveAll(fix.root)
	}
	os.Exit(code)
}

const fixtureCorpus = "traces.fdt2"

func campaign(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() { fix, fixErr = buildFixture() })
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func buildFixture() (*fixture, error) {
	root, err := os.MkdirTemp("", "cluster-fixture-")
	if err != nil {
		return nil, err
	}
	priv, pub, err := falcon.GenerateKey(8, rng.New(401))
	if err != nil {
		return nil, err
	}
	// Low noise keeps the corpus small enough that seven full fleet
	// recoveries stay fast while the key still recovers exactly.
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{}, emleak.Probe{Gain: 1, NoiseSigma: 0.5}, 402)
	obs, err := emleak.NewCampaign(dev, 403).Collect(448)
	if err != nil {
		return nil, err
	}
	w, err := tracestore.NewWriter(filepath.Join(root, fixtureCorpus), 8, tracestore.Options{})
	if err != nil {
		return nil, err
	}
	for _, o := range obs {
		if err := w.Append(o); err != nil {
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	src, err := tracestore.Open(filepath.Join(root, fixtureCorpus))
	if err != nil {
		return nil, err
	}
	store := &core.FileCheckpoint{Path: filepath.Join(root, "ref.ckpt")}
	refPriv, refRep, err := core.RecoverKeyResumable(src, pub, refConfig(), store)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	side, err := os.ReadFile(store.Path)
	if err != nil {
		return nil, err
	}
	return &fixture{root: root, pub: pub, refPriv: refPriv, refRep: refRep, refSide: side}, nil
}

func refConfig() core.Config { return core.Config{Workers: 1} }

// startFleet spins up k workers over the fixture root and returns their
// URLs plus the servers (for mid-sweep kills).
func startFleet(t *testing.T, root string, k int) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, k)
	servers := make([]*httptest.Server, k)
	for i := range urls {
		srv := httptest.NewServer(NewWorker(root).Handler())
		t.Cleanup(srv.Close)
		urls[i], servers[i] = srv.URL, srv
	}
	return urls, servers
}

// runFleet executes the full key recovery through the coordinator and
// returns the key, report, and sidecar bytes.
func runFleet(t *testing.T, f *fixture, c *Coordinator) (*falcon.PrivateKey, *core.RecoveryReport, []byte) {
	t.Helper()
	src, err := tracestore.Open(filepath.Join(f.root, fixtureCorpus))
	if err != nil {
		t.Fatal(err)
	}
	store := &core.FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	priv, rep, err := core.RecoverKeyResumable(core.WithDistributor(src, c), f.pub, refConfig(), store)
	if err != nil {
		t.Fatalf("distributed recovery: %v", err)
	}
	side, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatal(err)
	}
	return priv, rep, side
}

// sameRecovery asserts byte-identity against the serial reference.
func sameRecovery(t *testing.T, f *fixture, label string, priv *falcon.PrivateKey, rep *core.RecoveryReport, side []byte) {
	t.Helper()
	if !reflect.DeepEqual(priv, f.refPriv) {
		t.Fatalf("%s: recovered key differs from the serial reference", label)
	}
	if !reflect.DeepEqual(rep, f.refRep) {
		t.Fatalf("%s: recovery report differs from the serial reference", label)
	}
	if string(side) != string(f.refSide) {
		t.Fatalf("%s: checkpoint sidecar differs from the serial reference", label)
	}
}

func TestFleetBitIdenticalToSerial(t *testing.T) {
	f := campaign(t)
	for _, k := range []int{1, 2, 4} {
		urls, _ := startFleet(t, f.root, k)
		c := New(Options{Workers: urls, Corpus: fixtureCorpus, ShardsPerTask: 2})
		priv, rep, side := runFleet(t, f, c)
		sameRecovery(t, f, fmt.Sprintf("%d workers", k), priv, rep, side)
		rep2 := c.Report()
		if rep2.Remote == 0 || rep2.Local != 0 {
			t.Fatalf("%d workers: report %+v, want all-remote execution", k, rep2)
		}
	}
}

func TestFleetZeroWorkersDegradesToLocal(t *testing.T) {
	f := campaign(t)
	c := New(Options{Corpus: fixtureCorpus})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "zero workers", priv, rep, side)
	r := c.Report()
	if r.Local != r.Tasks || r.Remote != 0 {
		t.Fatalf("report %+v, want every task coordinator-local", r)
	}
}

// killableWorker serves tasks until its kill count, then dies for good:
// in-flight and subsequent requests get a torn connection, like a node
// that lost power mid-campaign.
type killableWorker struct {
	inner   http.Handler
	served  atomic.Int64
	killAt  int64
	dead    atomic.Bool
	srvAddr func() string
}

func (k *killableWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if k.dead.Load() || (k.killAt > 0 && k.served.Add(1) > k.killAt) {
		k.dead.Store(true)
		// Tear the connection without a response, like a SIGKILLed process.
		hj, ok := rw.(http.Hijacker)
		if !ok {
			panic("killableWorker: no hijack support")
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
		return
	}
	k.inner.ServeHTTP(rw, r)
}

func TestFleetSurvivesWorkerKilledMidSweep(t *testing.T) {
	f := campaign(t)
	victim := &killableWorker{inner: NewWorker(f.root).Handler(), killAt: 3}
	dead := httptest.NewServer(victim)
	t.Cleanup(dead.Close)
	alive, _ := startFleet(t, f.root, 1)

	c := New(Options{
		Workers:       []string{dead.URL, alive[0]},
		Corpus:        fixtureCorpus,
		ShardsPerTask: 2,
		Lease:         5 * time.Second,
		Retries:       3,
		Backoff:       time.Millisecond,
		Breaker:       supervise.BreakerConfig{Threshold: 2, OpenFor: time.Minute},
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "killed worker", priv, rep, side)
	r := c.Report()
	if r.Retries == 0 {
		t.Fatalf("report %+v: the dead node never forced a re-lease", r)
	}
	if r.Skips == 0 {
		t.Fatalf("report %+v: the dead node's breaker never opened", r)
	}
	if !victim.dead.Load() {
		t.Fatal("victim worker was never killed")
	}
}

// killStore crashes the run after a fixed number of checkpoint saves,
// simulating a coordinator process dying mid-campaign.
type killStore struct {
	inner     core.CheckpointStore
	remaining int
}

var errKilled = errors.New("simulated coordinator crash")

func (k *killStore) Load() (*core.Checkpoint, error) { return k.inner.Load() }
func (k *killStore) Save(ck *core.Checkpoint) error {
	if k.remaining <= 0 {
		return errKilled
	}
	k.remaining--
	return k.inner.Save(ck)
}

func TestFleetResumeAtDifferentNodeCount(t *testing.T) {
	// Kill the coordinator of a 4-node fleet mid-campaign, then resume it
	// over a single node: the sidecar is topology-free, so the finished
	// run is byte-identical to the serial reference.
	f := campaign(t)
	urls, _ := startFleet(t, f.root, 4)
	store := &core.FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	src, err := tracestore.Open(filepath.Join(f.root, fixtureCorpus))
	if err != nil {
		t.Fatal(err)
	}
	c4 := New(Options{Workers: urls, Corpus: fixtureCorpus, ShardsPerTask: 2})
	_, _, err = core.RecoverKeyResumable(core.WithDistributor(src, c4), f.pub, refConfig(), &killStore{inner: store, remaining: 2})
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted fleet run returned %v, want the simulated crash", err)
	}

	solo, _ := startFleet(t, f.root, 1)
	c1 := New(Options{Workers: solo, Corpus: fixtureCorpus, ShardsPerTask: 2})
	priv, rep, err := core.RecoverKeyResumable(core.WithDistributor(src, c1), f.pub, refConfig(), store)
	if err != nil {
		t.Fatalf("resume on smaller fleet: %v", err)
	}
	side, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatal(err)
	}
	sameRecovery(t, f, "4→1 node resume", priv, rep, side)
	if c1.Report().Remote == 0 {
		t.Fatal("resumed run never used its fleet")
	}
}

func TestFleetSurvivesFlakyTransport(t *testing.T) {
	// Drops, truncations and bit flips on the wire: corrupted partials are
	// rejected by the digest frame and re-fetched; dropped responses force
	// duplicate computation that the fold dedupes. Bytes must not budge.
	f := campaign(t)
	urls, _ := startFleet(t, f.root, 2)
	flaky := &faultinject.FlakyTransport{
		Seed:         90,
		DropRequest:  0.10,
		DropResponse: 0.10,
		Truncate:     0.08,
		FlipBit:      0.08,
	}
	c := New(Options{
		Workers:       urls,
		Corpus:        fixtureCorpus,
		Transport:     flaky,
		ShardsPerTask: 2,
		Retries:       8,
		Backoff:       time.Millisecond,
		Breaker:       supervise.BreakerConfig{Threshold: 1000},
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "flaky transport", priv, rep, side)
	r := c.Report()
	if r.Retries == 0 {
		t.Fatalf("report %+v: transport faults never forced a retry", r)
	}
	if r.Rejected == 0 {
		t.Fatalf("report %+v: no corrupted frame was ever rejected", r)
	}
	if flaky.Calls() == 0 {
		t.Fatal("flaky transport saw no traffic")
	}
}

func TestFleetHedgedRequestsDeduped(t *testing.T) {
	// A uniformly slow link makes every primary dawdle past the hedge
	// delay; both copies complete and deposit, and the fold keeps exactly
	// one of each shard.
	f := campaign(t)
	urls, _ := startFleet(t, f.root, 2)
	c := New(Options{
		Workers:       urls,
		Corpus:        fixtureCorpus,
		ShardsPerTask: 2,
		Hedge:         time.Microsecond,
		Transport: &faultinject.FlakyTransport{
			Seed:      91,
			DelayProb: 1,
			Delay:     5 * time.Millisecond,
		},
	})
	priv, rep, side := runFleet(t, f, c)
	sameRecovery(t, f, "hedged fleet", priv, rep, side)
	r := c.Report()
	if r.Hedges == 0 {
		t.Fatalf("report %+v: slow links never triggered a hedge", r)
	}
	if r.Duplicates == 0 {
		t.Fatalf("report %+v: hedged completions never produced a deduped duplicate", r)
	}
}

func TestWorkerConfinesCorpusPaths(t *testing.T) {
	w := NewWorker(t.TempDir())
	for _, name := range []string{"../secrets.fdt2", "/etc/passwd", "a/../../x"} {
		if _, err := w.resolve(name); err == nil {
			t.Fatalf("resolve(%q) escaped the worker root", name)
		}
	}
	if _, err := w.resolve("sub/traces.fdt2"); err != nil {
		t.Fatalf("resolve rejected a legal relative path: %v", err)
	}
}

func TestWorkerRejectsUnknownTaskFields(t *testing.T) {
	// A peer built from an older commit sends fields this worker no longer
	// has: the job lane offset "jobLo" of a task request, or the Welford
	// job's "transform" and "clamp". The worker must refuse the frame with
	// 400, which the coordinator retries and then computes locally, rather
	// than sweep with part of the request ignored.
	f := campaign(t)
	h := NewWorker(f.root).Handler()
	post := func(payload string) int {
		body, err := json.Marshal(envelope{CRC: crc32.Checksum([]byte(payload), crcTable), Payload: json.RawMessage(payload)})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/task", bytes.NewReader(body)))
		return rec.Code
	}
	const task = `{"corpus":%q,"view":{},"jobs":[{"kind":"welford"%s}],%s"shardLo":0,"shardHi":1}`
	if code := post(fmt.Sprintf(task, fixtureCorpus, "", "")); code != http.StatusOK {
		t.Fatalf("current task request answered %d, want 200", code)
	}
	for _, legacy := range []string{
		fmt.Sprintf(task, fixtureCorpus, "", `"jobLo":0,`),
		fmt.Sprintf(task, fixtureCorpus, `,"clamp":true`, ""),
	} {
		if code := post(legacy); code != http.StatusBadRequest {
			t.Fatalf("task request %s answered %d, want 400", legacy, code)
		}
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	type msg struct {
		A string `json:"a"`
		B int    `json:"b"`
	}
	body, err := seal(msg{A: "shard", B: 7})
	if err != nil {
		t.Fatal(err)
	}
	var out msg
	if err := open(bytesReader(body), maxFrameBytes, &out); err != nil || out.B != 7 {
		t.Fatalf("clean frame rejected: %v (%+v)", err, out)
	}
	// Flip one bit anywhere in the payload region: digest must catch it.
	for i := 0; i < len(body); i++ {
		bad := append([]byte(nil), body...)
		bad[i] ^= 0x10
		if err := open(bytesReader(bad), maxFrameBytes, &out); err == nil {
			t.Fatalf("bit flip at byte %d folded cleanly", i)
		}
	}
	// Truncation and oversize are rejected too.
	if err := open(bytesReader(body[:len(body)-3]), maxFrameBytes, &out); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if err := open(bytesReader(body), int64(len(body)-1), &out); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func bytesReader(b []byte) *os.File {
	// Frames arrive as HTTP bodies (io.Reader); a pipe keeps the test
	// honest about streaming reads.
	r, w, err := os.Pipe()
	if err != nil {
		panic(err)
	}
	go func() {
		w.Write(b)
		w.Close()
	}()
	return r
}
