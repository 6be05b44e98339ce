package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"falcondown/internal/cpa"
	"falcondown/internal/emleak"
	"falcondown/internal/fft"
	"falcondown/internal/tracestore"
)

// The wire-layer differential suite: a fake in-process distributor that
// pushes every pass through the real wire codecs (JSON round trips of
// SourceSpec, JobSpec and ShardPartial) and deposits partials out of
// order, duplicated, and mixed with local fallback — the full attack must
// still land byte-identical to the serial single-machine reference. The
// cluster package lifts the same suite to real HTTP processes.

// fakeDistributor simulates a fleet inside the test process. The
// "worker side" rebuilds everything from the JSON wire forms against its
// own raw corpus handle, exactly as a remote node would.
type fakeDistributor struct {
	raw        Source // worker-side raw corpus
	shardsPer  int    // shards per task
	duplicate  bool   // deposit every remote partial twice
	localEvery int    // every k-th task degrades to coordinator-local compute
	dups       int    // duplicates dropped, accumulated across passes
	remote     int    // tasks served by the "fleet"
	local      int    // tasks served by local fallback
	passes     int    // passes run
}

func (d *fakeDistributor) RunPass(p *DistPass) error {
	d.passes++
	// Round-trip the pass description through JSON: the worker must be
	// able to rebuild the pass from bytes alone.
	var view SourceSpec
	var specs []JobSpec
	if err := jsonRecode(p.View(), &view); err != nil {
		return err
	}
	if err := jsonRecode(p.Jobs(), &specs); err != nil {
		return err
	}
	step := d.shardsPer
	if step <= 0 {
		step = 2
	}
	type task struct{ lo, hi int }
	var tasks []task
	for lo := 0; lo < p.NumShards(); lo += step {
		tasks = append(tasks, task{lo, min(lo+step, p.NumShards())})
	}
	// Serve tasks in reverse order so partials always arrive out of fold
	// order — the coordinator's in-order fold must not care.
	for i := len(tasks) - 1; i >= 0; i-- {
		tk := tasks[i]
		var parts []ShardPartial
		var err error
		if d.localEvery > 0 && i%d.localEvery == 0 {
			parts, err = p.Compute(tk.lo, tk.hi, 0, p.NumJobs())
			d.local++
		} else {
			remote, cerr := ComputeShardPartials(d.raw, view, specs, tk.lo, tk.hi)
			if cerr != nil {
				return cerr
			}
			if err = jsonRecode(remote, &parts); err != nil {
				return err
			}
			d.remote++
		}
		if err != nil {
			return err
		}
		for k := len(parts) - 1; k >= 0; k-- {
			if err := p.Deposit(0, parts[k]); err != nil {
				return err
			}
			if d.duplicate {
				if err := p.Deposit(0, parts[k]); err != nil {
					return err
				}
			}
		}
	}
	d.dups += p.Duplicates()
	return nil
}

func jsonRecode(in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// runAttackDistributed mirrors runAttackAt through a distributor.
func runAttackDistributed(t *testing.T, src Source, cfg Config, dist Distributor) ([]fft.Cplx, []ValueResult, []byte) {
	t.Helper()
	store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	out, vals, err := AttackFFTfResumable(WithDistributor(src, dist), cfg, store)
	if err != nil {
		t.Fatalf("distributed attack: %v", err)
	}
	sidecar, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatal(err)
	}
	return out, vals, sidecar
}

func TestDistributedAttackBitIdenticalToSerial(t *testing.T) {
	dev, _, _ := deviceFor(t, 8, 2.0, 51)
	obs := collect(t, dev, 400, 52)
	src := tracestore.NewSliceSource(8, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)
	for _, d := range []*fakeDistributor{
		{raw: src, shardsPer: 1},
		{raw: src, shardsPer: 3, duplicate: true},
		{raw: src, shardsPer: 2, localEvery: 2},
	} {
		out, vals, sidecar := runAttackDistributed(t, src, Config{}, d)
		label := fmt.Sprintf("shardsPer=%d dup=%v localEvery=%d", d.shardsPer, d.duplicate, d.localEvery)
		sameAttackOutput(t, label, refOut, refVals, refSidecar, out, vals, sidecar)
		if d.duplicate && d.dups == 0 {
			t.Fatalf("%s: duplicated every deposit but none were dropped", label)
		}
		if d.localEvery > 0 && d.local == 0 {
			t.Fatalf("%s: local fallback configured but never exercised", label)
		}
	}
}

func TestDistributedRobustAttackBitIdenticalToSerial(t *testing.T) {
	// The robust path ships mask layers and the frozen preprocessing plan
	// over the wire; a worker rebuilding the view from the spec must see
	// the identical transformed bytes.
	dev, _, _ := deviceFor(t, 8, 1.5, 53)
	obs := dirtyCorpus(t, dev, 500)
	src := tracestore.NewSliceSource(8, obs)
	cfg := Config{Robust: RobustConfig{TrimSigmas: 4, ResyncShift: 2, Winsorize: 4}}

	refOut, refVals, refSidecar := runAttackAt(t, src, cfg, 1)
	d := &fakeDistributor{raw: src, shardsPer: 2, duplicate: true}
	out, vals, sidecar := runAttackDistributed(t, src, cfg, d)
	sameAttackOutput(t, "robust distributed", refOut, refVals, refSidecar, out, vals, sidecar)
	if d.remote == 0 {
		t.Fatal("robust distributed run never reached the fleet")
	}
}

// decodeCounter is a seekable view of a corpus that counts the
// observations its passes decode.
type decodeCounter struct {
	Source
	decoded atomic.Int64
}

func (s *decodeCounter) Iterate() (tracestore.Iterator, error) { return s.IterateFrom(0) }

func (s *decodeCounter) IterateFrom(start int) (tracestore.Iterator, error) {
	it, err := tracestore.IterateFrom(s.Source, start)
	if err != nil {
		return nil, err
	}
	return &countingIterator{Iterator: it, n: &s.decoded}, nil
}

type countingIterator struct {
	tracestore.Iterator
	n *atomic.Int64
}

func (it *countingIterator) Next() (emleak.Observation, error) {
	o, err := it.Iterator.Next()
	if err == nil {
		it.n.Add(1)
	}
	return o, err
}

func TestFleetTasksDecodeOnlyTheirShards(t *testing.T) {
	// A fleet task starts its pass at its first shard, through the
	// corpus's chunk index, so a pass over the fleet decodes each trace
	// once however its shards are cut into tasks, and the attack lands on
	// the serial bytes.
	dev, _, _ := deviceFor(t, 8, 2.0, 57)
	obs := collect(t, dev, 11*shardObs+5, 58)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	w, err := tracestore.NewWriter(path, 8, tracestore.Options{ShardObs: 200, ChunkObs: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if err := w.Append(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	corpus, err := tracestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}

	refOut, refVals, refSidecar := runAttackAt(t, corpus, Config{}, 1)
	for _, per := range []int{1, 4} {
		raw := &decodeCounter{Source: corpus}
		d := &fakeDistributor{raw: raw, shardsPer: per}
		out, vals, sidecar := runAttackDistributed(t, corpus, Config{}, d)
		label := fmt.Sprintf("shardsPer=%d", per)
		sameAttackOutput(t, label, refOut, refVals, refSidecar, out, vals, sidecar)
		if got, want := raw.decoded.Load(), int64(d.passes*len(obs)); d.passes == 0 || got != want {
			t.Fatalf("%s: %d passes decoded %d traces, want %d", label, d.passes, got, want)
		}
	}
}

func TestDistributedResumeSwitchesToLocal(t *testing.T) {
	// A campaign checkpointed by the coordinator of a fleet must resume on
	// a single machine (and vice versa) bit-identically: the sidecar is
	// topology-free all the way up to process granularity.
	dev, _, _ := deviceFor(t, 8, 2.0, 55)
	obs := collect(t, dev, 400, 56)
	src := tracestore.NewSliceSource(8, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)

	store := &FileCheckpoint{Path: filepath.Join(t.TempDir(), "attack.ckpt")}
	d := &fakeDistributor{raw: src, shardsPer: 2}
	_, _, err := AttackFFTfResumable(WithDistributor(src, d), Config{}, &failingStore{inner: store, remaining: 2})
	if !errors.Is(err, errKilled) {
		t.Fatalf("interrupted distributed run returned %v, want simulated crash", err)
	}

	out, vals, err := AttackFFTfResumable(src, Config{}, store)
	if err != nil {
		t.Fatalf("local resume of distributed checkpoint: %v", err)
	}
	sidecar, err := os.ReadFile(store.Path)
	if err != nil {
		t.Fatal(err)
	}
	sameAttackOutput(t, "distributed→local resume", refOut, refVals, refSidecar, out, vals, sidecar)
}

func TestDepositRejectsCorruptPartials(t *testing.T) {
	// Shape corruption — wrong engine counts, wrong hypothesis widths,
	// mis-addressed shards — must reject the whole partial without folding
	// anything; the attack result stays identical to the serial reference.
	dev, _, _ := deviceFor(t, 8, 2.0, 57)
	obs := collect(t, dev, 200, 58)
	src := tracestore.NewSliceSource(8, obs)

	refOut, refVals, refSidecar := runAttackAt(t, src, Config{}, 1)
	d := &corruptingDistributor{fakeDistributor: fakeDistributor{raw: src, shardsPer: 2}}
	out, vals, sidecar := runAttackDistributed(t, src, Config{}, d)
	sameAttackOutput(t, "corrupting distributor", refOut, refVals, refSidecar, out, vals, sidecar)
	if d.rejected == 0 {
		t.Fatal("no corrupted partial was ever offered and rejected")
	}
}

// corruptingDistributor serves each pass like fakeDistributor, but first
// offers a deliberately corrupted copy of the first partial of each pass
// and demands the coordinator rejects it.
type corruptingDistributor struct {
	fakeDistributor
	rejected int
	pass     int
}

func (d *corruptingDistributor) RunPass(p *DistPass) error {
	var view SourceSpec
	var specs []JobSpec
	if err := jsonRecode(p.View(), &view); err != nil {
		return err
	}
	if err := jsonRecode(p.Jobs(), &specs); err != nil {
		return err
	}
	if p.NumShards() > 0 {
		clean, err := ComputeShardPartials(d.raw, view, specs, 0, 1)
		if err != nil {
			return err
		}
		d.pass++
		for i, corrupt := range corruptedCopies(clean[0], p.NumShards()) {
			if err := p.Deposit(0, corrupt); err == nil {
				return fmt.Errorf("pass %d: corrupted partial %d folded without error", d.pass, i)
			}
			d.rejected++
		}
	}
	return d.fakeDistributor.RunPass(p)
}

// corruptedCopies derives shape-corrupted variants of a clean partial.
func corruptedCopies(sp ShardPartial, nShards int) []ShardPartial {
	var out []ShardPartial
	// Shard index outside the pass.
	bad := sp
	bad.Shard = nShards + 7
	out = append(out, bad)
	if len(sp.States) > 0 {
		st := sp.States[0]
		switch {
		case len(st.Engines) > 0:
			// Drop an engine: block shape no longer matches the job.
			bad = sp
			bad.States = append([]JobState(nil), sp.States...)
			bad.States[0] = JobState{Engines: st.Engines[:len(st.Engines)-1]}
			out = append(out, bad)
			// Truncate an engine's packed sums: length disagrees with the
			// declared hypothesis count.
			bad = sp
			bad.States = append([]JobState(nil), sp.States...)
			engines := append([]cpa.EngineState(nil), st.Engines...)
			engines[0].SumH = engines[0].SumH[:len(engines[0].SumH)/2]
			bad.States[0] = JobState{Engines: engines}
			out = append(out, bad)
		case st.Matrix != nil:
			// Lie about the matrix shape.
			m := *st.Matrix
			m.NHyp++
			bad = sp
			bad.States = append([]JobState(nil), sp.States...)
			bad.States[0] = JobState{Matrix: &m}
			out = append(out, bad)
		}
	}
	return out
}
