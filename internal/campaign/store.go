package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"falcondown/internal/atomicfile"
)

// Per-campaign file names inside <root>/<id>/. The corpus and its
// checkpoint sidecar reuse the tracestore/core layouts unchanged, so all
// the salvage/resume machinery applies file-for-file; spec.json is
// immutable after creation, state.json is rewritten (atomically) on every
// transition, and result.json/key.json appear only on success.
//
// The attack sidecar (traces.fdt2.ckpt) is deliberately KEPT after a
// successful campaign: it is the durable record of the attack state, and
// the kill/restart contract ("an interrupted campaign finishes with a
// sidecar byte-identical to an uninterrupted run") is verified against
// it.
const (
	specFile   = "spec.json"
	stateFile  = "state.json"
	pubFile    = "victim.pub"
	traceFile  = "traces.fdt2"
	resultFile = "result.json"
	keyFile    = "key.json"
	// obsFile is the flight-record snapshot written beside result.json on
	// success. Diagnostic only: timings differ run to run, so it is NOT
	// part of the byte-identity artifact set the restart suite compares.
	obsFile = "obs.json"
)

// Store is the durable root directory of a server: one subdirectory per
// campaign, named by campaign ID.
type Store struct {
	root string
}

// NewStore opens (creating if needed) a store root.
func NewStore(root string) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: store: %w", err)
	}
	return &Store{root: root}, nil
}

// Root returns the store root directory.
func (st *Store) Root() string { return st.root }

// Dir returns the directory of one campaign.
func (st *Store) Dir(id string) string { return filepath.Join(st.root, id) }

// TracePath returns the corpus path of one campaign (the base name; the
// writer derives shard names from it when the spec shards).
func (st *Store) TracePath(id string) string { return filepath.Join(st.Dir(id), traceFile) }

// SidecarPath returns the attack checkpoint sidecar path.
func (st *Store) SidecarPath(id string) string { return st.TracePath(id) + ".ckpt" }

// Create makes the campaign directory and persists its immutable spec.
func (st *Store) Create(id string, spec Spec) error {
	if err := os.MkdirAll(st.Dir(id), 0o755); err != nil {
		return fmt.Errorf("campaign: store: %w", err)
	}
	return writeJSONAtomic(filepath.Join(st.Dir(id), specFile), spec)
}

// SaveState persists the mutable runtime state atomically.
func (st *Store) SaveState(id string, s state) error {
	return writeJSONAtomic(filepath.Join(st.Dir(id), stateFile), s)
}

// SaveResult persists the success record and the canonical key bytes.
func (st *Store) SaveResult(id string, res Result, keyJSON []byte) error {
	if err := writeJSONAtomic(filepath.Join(st.Dir(id), resultFile), res); err != nil {
		return err
	}
	return writeBytesAtomic(filepath.Join(st.Dir(id), keyFile), keyJSON)
}

// LoadResult reads the raw result.json of a finished campaign.
func (st *Store) LoadResult(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.Dir(id), resultFile))
}

// LoadKey reads the canonical key.json bytes of a finished campaign.
func (st *Store) LoadKey(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(st.Dir(id), keyFile))
}

// persisted is one campaign as found on disk by Scan.
type persisted struct {
	ID    string
	Spec  Spec
	State state
}

// Scan enumerates the campaigns in the store in ID order — the boot-time
// pass a restarted server uses to rebuild its world. Directories without
// a readable spec are skipped with an error in the returned slice's
// stead (a half-created directory from a crash mid-Create is abandoned:
// the submitter never got an ID for it, so nothing references it).
func (st *Store) Scan() ([]persisted, error) {
	entries, err := os.ReadDir(st.root)
	if err != nil {
		return nil, fmt.Errorf("campaign: store scan: %w", err)
	}
	var out []persisted
	for _, e := range entries {
		if !e.IsDir() || !validID(e.Name()) {
			continue
		}
		p := persisted{ID: e.Name()}
		if err := readJSON(filepath.Join(st.Dir(p.ID), specFile), &p.Spec); err != nil {
			continue // crash mid-Create: no spec, nothing to adopt
		}
		if err := readJSON(filepath.Join(st.Dir(p.ID), stateFile), &p.State); err != nil {
			// Spec persisted but no state yet: the campaign was admitted
			// and crashed before its first transition — treat as queued.
			p.State = state{Status: StatusQueued}
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// NextID returns the next unused campaign ID given the scanned set.
func NextID(existing []persisted) int {
	next := 1
	for _, p := range existing {
		if n, ok := idNum(p.ID); ok && n >= next {
			next = n + 1
		}
	}
	return next
}

// FormatID renders a campaign number as its directory name.
func FormatID(n int) string { return fmt.Sprintf("c%06d", n) }

func validID(id string) bool {
	_, ok := idNum(id)
	return ok
}

func idNum(id string) (int, bool) {
	if !strings.HasPrefix(id, "c") || len(id) < 2 {
		return 0, false
	}
	n, err := strconv.Atoi(id[1:])
	if err != nil || n <= 0 {
		return 0, false
	}
	return n, true
}

// writeJSONAtomic marshals v and writes it via temp-file + rename so a
// crash mid-write leaves either the old or the new content, never a torn
// file — the same discipline as the attack checkpoint sidecar.
func writeJSONAtomic(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("campaign: store: %w", err)
	}
	return writeBytesAtomic(path, append(data, '\n'))
}

func writeBytesAtomic(path string, data []byte) error {
	if err := atomicfile.WriteFile(path, data, 0o600); err != nil {
		return fmt.Errorf("campaign: store: %w", err)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("campaign: store: unparseable %s: %w", path, err)
	}
	return nil
}

// exists reports whether a path exists.
func exists(path string) bool {
	_, err := os.Stat(path)
	return !errors.Is(err, fs.ErrNotExist)
}
