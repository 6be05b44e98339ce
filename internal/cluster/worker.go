package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"falcondown/internal/atomicfile"
	"falcondown/internal/core"
	"falcondown/internal/obs"
	"falcondown/internal/tracestore"
)

// maxFrameBytes bounds any single framed request or response body. Task
// responses carry at most shardsPerTask × jobs-per-pass engine states;
// even the widest pass (the 2047-hypothesis exponent scan) stays far
// under this.
const maxFrameBytes = 1 << 27 // 128 MiB

// taskRequest describes one block of work: rebuild the corpus view and
// every job of the pass from their specs, and sweep shards
// [shardLo, shardHi).
type taskRequest struct {
	// Corpus names the trace corpus, resolved against the worker's root.
	Corpus string `json:"corpus"`
	// View reconstructs the coordinator's exact corpus view (mask layers
	// plus the frozen robust plan). When View.Pin is set the worker
	// verifies its replica's content digests against it before sweeping.
	View core.SourceSpec `json:"view"`
	// BlobURL, when set, is the coordinator's shard-push endpoint: a
	// worker whose replica is missing or divergent fetches authoritative
	// shards from it instead of rejecting the task.
	BlobURL string `json:"blobURL,omitempty"`
	// Jobs are all of the pass's accumulation jobs, in pass order.
	Jobs    []core.JobSpec `json:"jobs"`
	ShardLo int            `json:"shardLo"`
	ShardHi int            `json:"shardHi"`
}

// taskResponse carries one ShardPartial per swept shard, in shard order.
type taskResponse struct {
	Partials []core.ShardPartial `json:"partials"`
	// Repaired counts shard files this task fetched from the blob
	// service (missing or divergent locally).
	Repaired int `json:"repaired,omitempty"`
}

// statusDivergent is the HTTP status a worker answers when its replica's
// content digests disagree with the request's pin and no blob service is
// available to repair from — a typed rejection, never a silent sweep of
// wrong bytes.
const statusDivergent = http.StatusConflict

// errDivergent reports a replica whose bytes are not the bytes the
// coordinator pinned.
type errDivergent struct{ detail string }

func (e errDivergent) Error() string {
	return "cluster: divergent corpus replica: " + e.detail
}

// corpusEntry is one cached, content-verified corpus. The cache key is
// the resolved path (local replicas) or the pinned manifest digest
// (assembled repairs); stamps let every request revalidate cheaply, so
// a repaired or replaced corpus on disk is visible without a restart.
type corpusEntry struct {
	corpus *tracestore.Corpus
	man    *tracestore.Manifest
	stamps []fileStamp
}

type fileStamp struct {
	path  string
	size  int64
	mtime time.Time
}

// stale re-stats the entry's files; any size or mtime drift (or a
// vanished file) invalidates the entry.
func (e *corpusEntry) stale() bool {
	for _, s := range e.stamps {
		st, err := os.Stat(s.path)
		if err != nil || st.Size() != s.size || !st.ModTime().Equal(s.mtime) {
			return true
		}
	}
	return false
}

func stampFiles(paths []string) ([]fileStamp, error) {
	out := make([]fileStamp, len(paths))
	for i, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		out[i] = fileStamp{path: p, size: st.Size(), mtime: st.ModTime()}
	}
	return out, nil
}

// Worker serves shard-partial computations for a coordinator. It is
// stateless beyond a cache of open corpora: a worker that crashes and
// restarts (or a fresh node joining mid-campaign) serves the same bytes,
// because every task request carries the full view, job specs and
// content pin. A worker with an empty root is fully diskless: every
// shard it sweeps arrives through the blob service.
type Worker struct {
	// Root is the directory corpus names resolve under. Requests naming
	// paths outside it are rejected. Fetched shards are cached under
	// Root/.blobcache.
	Root string

	// Tap, when set, wraps every corpus just before it is swept — the
	// test seam for a lying node: storage authentic, computation wrong.
	Tap func(tracestore.Source) tracestore.Source

	client *http.Client

	// Served/divergent/repaired are per-instance tallies for the healthz
	// snapshot; the obs counters aggregate the same events process-wide.
	served    atomic.Int64
	divergent atomic.Int64
	repaired  atomic.Int64

	mu      sync.Mutex
	corpora map[string]*corpusEntry
}

// NewWorker returns a worker serving corpora under root.
func NewWorker(root string) *Worker {
	return &Worker{
		Root:    root,
		client:  &http.Client{Timeout: 2 * time.Minute},
		corpora: make(map[string]*corpusEntry),
	}
}

// workerHealth is the healthz snapshot: build identity plus the serving
// tallies a fleet operator checks before pointing a coordinator here.
type workerHealth struct {
	Status           string  `json:"status"`
	UptimeSeconds    float64 `json:"uptime_seconds"`
	GoVersion        string  `json:"go_version"`
	Revision         string  `json:"revision,omitempty"`
	Corpora          int     `json:"corpora"`
	TasksServed      int64   `json:"tasks_served"`
	ShardsRepaired   int64   `json:"shards_repaired"`
	DivergentRejects int64   `json:"divergent_rejects"`
}

// Handler returns the worker's HTTP surface:
//
//	POST /task     — compute shard partials for a task request
//	GET  /healthz  — JSON health snapshot (build info, serving tallies)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/task", w.handleTask)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, r *http.Request) {
		w.mu.Lock()
		corpora := len(w.corpora)
		w.mu.Unlock()
		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		enc.Encode(workerHealth{
			Status:           "ok",
			UptimeSeconds:    obs.Uptime(),
			GoVersion:        runtime.Version(),
			Revision:         obs.BuildRevision(),
			Corpora:          corpora,
			TasksServed:      w.served.Load(),
			ShardsRepaired:   w.repaired.Load(),
			DivergentRejects: w.divergent.Load(),
		})
	})
	return mux
}

// cached returns the entry under key if it is present and its files have
// not drifted; a stale entry is evicted.
func (w *Worker) cached(key string) *corpusEntry {
	w.mu.Lock()
	defer w.mu.Unlock()
	e, ok := w.corpora[key]
	if !ok {
		return nil
	}
	if e.stale() {
		delete(w.corpora, key)
		return nil
	}
	return e
}

func (w *Worker) store(key string, e *corpusEntry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.corpora == nil {
		w.corpora = make(map[string]*corpusEntry)
	}
	w.corpora[key] = e
}

// openEntry opens and hashes the corpus at path, stamping its files for
// revalidation.
func openEntry(path string) (*corpusEntry, error) {
	c, err := tracestore.Open(path)
	if err != nil {
		return nil, err
	}
	stamps, err := stampFiles(c.Paths())
	if err != nil {
		return nil, err
	}
	man, err := c.Manifest()
	if err != nil {
		return nil, err
	}
	return &corpusEntry{corpus: c, man: man, stamps: stamps}, nil
}

// source resolves and caches the local replica named by a request,
// revalidating file stamps on every call.
func (w *Worker) source(name string) (*corpusEntry, error) {
	path, err := w.resolve(name)
	if err != nil {
		return nil, err
	}
	if e := w.cached(path); e != nil {
		return e, nil
	}
	e, err := openEntry(path)
	if err != nil {
		return nil, err
	}
	w.store(path, e)
	return e, nil
}

// resolve maps a request's corpus name to a filesystem path, confining
// it to the worker's root.
func (w *Worker) resolve(name string) (string, error) {
	if w.Root == "" {
		return name, nil
	}
	if filepath.IsAbs(name) {
		return "", fmt.Errorf("cluster: absolute corpus path %q rejected", name)
	}
	clean := filepath.Clean(name)
	if clean == ".." || strings.HasPrefix(clean, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("cluster: corpus path %q escapes the worker root", name)
	}
	return filepath.Join(w.Root, clean), nil
}

// sweepEntry picks the corpus a task sweeps. Unpinned requests use the
// local replica as-is (pre-pin coordinators keep working). Pinned
// requests demand content equality: a matching replica is used, a
// mismatched or missing one is repaired through the blob service when
// one is offered, and rejected as divergent otherwise.
func (w *Worker) sweepEntry(req taskRequest) (*corpusEntry, int, error) {
	pin := req.View.Pin
	e, localErr := w.source(req.Corpus)
	if pin == nil {
		return e, 0, localErr
	}
	if localErr == nil && e.man.Digest == pin.Manifest {
		return e, 0, nil
	}
	// A previously assembled repair for this exact content?
	if ae := w.cached("pin:" + pin.Manifest); ae != nil {
		return ae, 0, nil
	}
	if req.BlobURL == "" {
		if localErr != nil {
			return nil, 0, errDivergent{fmt.Sprintf("corpus %q unavailable and no blob service offered: %v", req.Corpus, localErr)}
		}
		return nil, 0, errDivergent{fmt.Sprintf("corpus %q has manifest %.12s…, coordinator pinned %.12s…", req.Corpus, e.man.Digest, pin.Manifest)}
	}
	var local *tracestore.Manifest
	if localErr == nil {
		local = e.man
	}
	ae, repaired, err := w.assemble(pin, req.BlobURL, local, localErr == nil, e)
	if err != nil {
		return nil, 0, err
	}
	w.store("pin:"+pin.Manifest, ae)
	return ae, repaired, nil
}

// assemble builds a corpus matching pin shard by shard: local shards
// whose digests already match are reused in place; every other shard is
// fetched from the blob service, digest-verified, and atomically renamed
// into the worker's blob cache.
func (w *Worker) assemble(pin *core.CorpusPin, blobURL string, local *tracestore.Manifest, haveLocal bool, localEntry *corpusEntry) (*corpusEntry, int, error) {
	byDigest := make(map[string]string)
	if haveLocal {
		paths := localEntry.corpus.Paths()
		for i, s := range local.Shards {
			byDigest[s.SHA256] = paths[i]
		}
	}
	cacheDir := filepath.Join(w.Root, ".blobcache")
	repaired := 0
	paths := make([]string, len(pin.Shards))
	for i, digest := range pin.Shards {
		if p, ok := byDigest[digest]; ok {
			paths[i] = p
			continue
		}
		cachedPath := filepath.Join(cacheDir, digest+".fdt2")
		if d, err := tracestore.HashShard(cachedPath); err == nil && d.SHA256 == digest {
			paths[i] = cachedPath
			continue
		}
		payload, err := fetchBlob(w.client, blobURL, digest)
		if err != nil {
			return nil, 0, err
		}
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			return nil, 0, err
		}
		if err := atomicfile.WriteFile(cachedPath, payload, 0o600); err != nil {
			return nil, 0, err
		}
		paths[i] = cachedPath
		repaired++
	}
	c, err := tracestore.OpenFiles(paths)
	if err != nil {
		return nil, 0, err
	}
	man, err := c.Manifest()
	if err != nil {
		return nil, 0, err
	}
	if man.Digest != pin.Manifest {
		// Every shard hashed right individually, so this can only be a
		// pin whose manifest digest does not bind its own shard list.
		return nil, 0, errDivergent{fmt.Sprintf("assembled corpus has manifest %.12s…, pin claims %.12s…", man.Digest, pin.Manifest)}
	}
	stamps, err := stampFiles(paths)
	if err != nil {
		return nil, 0, err
	}
	return &corpusEntry{corpus: c, man: man, stamps: stamps}, repaired, nil
}

func (w *Worker) handleTask(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(rw, "POST only", http.StatusMethodNotAllowed)
		return
	}
	sp := obs.StartSpan(mWorkerTaskSeconds)
	defer sp.End()
	var req taskRequest
	if err := open(r.Body, maxFrameBytes, &req); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	e, repaired, err := w.sweepEntry(req)
	if repaired > 0 {
		w.repaired.Add(int64(repaired))
		mWorkerRepairs.Add(int64(repaired))
	}
	if err != nil {
		var de errDivergent
		if ok := asDivergent(err, &de); ok {
			w.divergent.Add(1)
			mWorkerDivergent.Inc()
			http.Error(rw, de.Error(), statusDivergent)
			return
		}
		http.Error(rw, err.Error(), http.StatusNotFound)
		return
	}
	w.served.Add(1)
	mWorkerTasks.Inc()
	var src core.Source = e.corpus
	if w.Tap != nil {
		src = w.Tap(src)
	}
	parts, err := core.ComputeShardPartials(src, req.View, req.Jobs, req.ShardLo, req.ShardHi)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	body, err := seal(taskResponse{Partials: parts, Repaired: repaired})
	if err != nil {
		http.Error(rw, err.Error(), http.StatusInternalServerError)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	rw.Write(body)
}

func asDivergent(err error, out *errDivergent) bool {
	de, ok := err.(errDivergent)
	if ok {
		*out = de
	}
	return ok
}
