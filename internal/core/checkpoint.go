package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"falcondown/internal/atomicfile"
	"falcondown/internal/fpr"
)

// Checkpointed recovery. The whole-key attack is a sequence of expensive
// corpus sweeps (exponents, extend rounds, prune, escalation, signs,
// straggler retries); on a multi-gigabyte campaign each phase can run for
// hours. A killed attack must not restart from zero: the runner serializes
// its per-phase state to a sidecar after every completed phase, and a
// resumed run reloads the last completed phase and continues from the next
// one without re-sweeping the corpus for work already done.
//
// DESIGN.md §3.2 documents the sidecar format and the resume rules.

// Attack phases in execution order. A checkpoint's Stage names the last
// phase that COMPLETED; resume starts at the next one.
const (
	StageExponents   = "exponents"  // per-value exponent pass done
	StageMantissa    = "mantissa"   // extend rounds + prune done for every value
	StageEscalation  = "escalation" // weak-prune beam escalation done
	StageSigns       = "signs"      // joint sign pass done; values assembled
	StageStragglers  = "stragglers" // below-median retry done; attack complete
	checkpointFormat = 1            // sidecar schema version
)

// stageRank maps a completed stage to the number of phases finished; the
// empty stage (fresh run) ranks zero.
func stageRank(stage string) (int, error) {
	switch stage {
	case "":
		return 0, nil
	case StageExponents:
		return 1, nil
	case StageMantissa:
		return 2, nil
	case StageEscalation:
		return 3, nil
	case StageSigns:
		return 4, nil
	case StageStragglers:
		return 5, nil
	}
	return 0, fmt.Errorf("%w: unknown stage %q", ErrCheckpointMismatch, stage)
}

// ErrCheckpointMismatch reports a checkpoint that does not belong to the
// campaign being attacked (different corpus size, degree, or attack
// configuration) or that is structurally unusable. Resuming against the
// wrong corpus would silently blend state from two campaigns, so this is
// always fatal; delete the sidecar to start over.
var ErrCheckpointMismatch = errors.New("core: checkpoint does not match this attack")

// MagCheckpoint is the serialized per-value magnitude state (the working
// state of the exponent, mantissa and escalation phases). Mant is a string
// in JSON so 52-bit values survive consumers that parse numbers as
// float64.
type MagCheckpoint struct {
	BiasedExp int     `json:"biasedExp"`
	ExpAlts   []int   `json:"expAlts,omitempty"`
	Mant      uint64  `json:"mant,string"`
	ExpCorr   float64 `json:"expCorr"`
	PruneCorr float64 `json:"pruneCorr"`
	Gap       float64 `json:"gap"`
	Escalated bool    `json:"escalated,omitempty"`
}

// ValueCheckpoint is the serialized form of a ValueResult (present once
// the signs phase has completed). Value carries the full 64-bit FPR bit
// pattern, as a string for the same reason as Mant.
type ValueCheckpoint struct {
	Value           uint64  `json:"value,string"`
	SignCorr        float64 `json:"signCorr"`
	ExpCorr         float64 `json:"expCorr"`
	ExpAlternatives []int   `json:"expAlternatives,omitempty"`
	PruneCorr       float64 `json:"pruneCorr"`
	RunnerUpGap     float64 `json:"runnerUpGap"`
	Escalated       bool    `json:"escalated,omitempty"`
	Significant     bool    `json:"significant"`
	TracesUsed      int     `json:"tracesUsed"`
}

// Checkpoint is the attack state serialized after each completed phase.
// N, Count and Config bind it to one campaign + configuration; Load-time
// verification refuses to resume against anything else.
type Checkpoint struct {
	Format  int               `json:"format"`
	N       int               `json:"n"`
	Count   int               `json:"count"`
	Config  Config            `json:"config"`
	Stage   string            `json:"stage"`
	Mags    []MagCheckpoint   `json:"mags,omitempty"`
	Results []ValueCheckpoint `json:"results,omitempty"`
}

// matches verifies the checkpoint belongs to this campaign and config.
func (c *Checkpoint) matches(n, count int, cfg Config) error {
	if c.Format != checkpointFormat {
		return fmt.Errorf("%w: sidecar format %d, this build writes %d", ErrCheckpointMismatch, c.Format, checkpointFormat)
	}
	if c.N != n || c.Count != count {
		return fmt.Errorf("%w: checkpoint is for a degree-%d campaign of %d traces, corpus has degree %d and %d traces",
			ErrCheckpointMismatch, c.N, c.Count, n, count)
	}
	// Workers is scheduling only (results are worker-count-independent),
	// so it never binds a checkpoint to a topology: normalize both sides.
	ckCfg, runCfg := c.Config, cfg
	ckCfg.Workers, runCfg.Workers = 0, 0
	if ckCfg != runCfg {
		return fmt.Errorf("%w: checkpoint was written with a different attack configuration", ErrCheckpointMismatch)
	}
	rank, err := stageRank(c.Stage)
	if err != nil {
		return err
	}
	if rank >= 1 && len(c.Mags) != n {
		return fmt.Errorf("%w: %d magnitude records for a degree-%d campaign", ErrCheckpointMismatch, len(c.Mags), n)
	}
	if rank >= 4 && len(c.Results) != n {
		return fmt.Errorf("%w: %d value records for a degree-%d campaign", ErrCheckpointMismatch, len(c.Results), n)
	}
	return nil
}

// CheckpointStore persists attack state between runs. Load returns
// (nil, nil) when no checkpoint exists yet. Save must be atomic enough
// that a crash mid-save leaves either the old or the new state readable.
type CheckpointStore interface {
	Load() (*Checkpoint, error)
	Save(*Checkpoint) error
}

// FileCheckpoint stores the checkpoint as a JSON sidecar file, written
// atomically (temp file + rename in the same directory).
type FileCheckpoint struct {
	Path string
}

// Load reads the sidecar; a missing file means a fresh run.
func (f *FileCheckpoint) Load() (*Checkpoint, error) {
	data, err := os.ReadFile(f.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint: %w", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("%w: unparseable sidecar %s: %v", ErrCheckpointMismatch, f.Path, err)
	}
	return &ck, nil
}

// Save writes the sidecar atomically.
func (f *FileCheckpoint) Save(ck *Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if err := atomicfile.WriteFile(f.Path, data, 0o600); err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	return nil
}

// Remove deletes the sidecar (call after a successful recovery so a later
// campaign at the same path starts fresh). Missing is not an error.
func (f *FileCheckpoint) Remove() error {
	err := os.Remove(f.Path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// checkpointMag converts working state to its serialized form.
func checkpointMag(m magnitude) MagCheckpoint {
	return MagCheckpoint{
		BiasedExp: m.biasedExp,
		ExpAlts:   m.expAlts,
		Mant:      m.mant,
		ExpCorr:   m.expCorr,
		PruneCorr: m.pruneCorr,
		Gap:       m.gap,
		Escalated: m.escalated,
	}
}

func restoreMag(c MagCheckpoint) magnitude {
	return magnitude{
		biasedExp: c.BiasedExp,
		expAlts:   c.ExpAlts,
		mant:      c.Mant,
		expCorr:   c.ExpCorr,
		pruneCorr: c.PruneCorr,
		gap:       c.Gap,
		escalated: c.Escalated,
	}
}

func checkpointValue(r ValueResult) ValueCheckpoint {
	return ValueCheckpoint{
		Value:           uint64(r.Value),
		SignCorr:        r.SignCorr,
		ExpCorr:         r.ExpCorr,
		ExpAlternatives: r.ExpAlternatives,
		PruneCorr:       r.PruneCorr,
		RunnerUpGap:     r.RunnerUpGap,
		Escalated:       r.Escalated,
		Significant:     r.Significant,
		TracesUsed:      r.TracesUsed,
	}
}

func restoreValue(c ValueCheckpoint) ValueResult {
	return ValueResult{
		Value:           fpr.FPR(c.Value),
		SignCorr:        c.SignCorr,
		ExpCorr:         c.ExpCorr,
		ExpAlternatives: c.ExpAlternatives,
		PruneCorr:       c.PruneCorr,
		RunnerUpGap:     c.RunnerUpGap,
		Escalated:       c.Escalated,
		Significant:     c.Significant,
		TracesUsed:      c.TracesUsed,
	}
}
