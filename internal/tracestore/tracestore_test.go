package tracestore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
)

// testCampaign reproduces the fixture parameters used to generate
// testdata/golden_v1.fdtr (keygen seed 41, device seed 42, campaign seed
// 43) so compat tests can regenerate the expected observations.
func testCampaign(t *testing.T, count int) []emleak.Observation {
	t.Helper()
	priv, _, err := falcon.GenerateKey(8, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: 1.5}, 42)
	obs, err := emleak.NewCampaign(dev, 43).Collect(count)
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

func sameObservations(t *testing.T, want, got []emleak.Observation) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("got %d observations, want %d", len(got), len(want))
	}
	for i := range want {
		if len(want[i].CFFT) != len(got[i].CFFT) ||
			len(want[i].Trace.Samples) != len(got[i].Trace.Samples) {
			t.Fatalf("observation %d shape mismatch", i)
		}
		for k := range want[i].CFFT {
			if want[i].CFFT[k] != got[i].CFFT[k] {
				t.Fatalf("observation %d input %d mismatch", i, k)
			}
		}
		for j := range want[i].Trace.Samples {
			if want[i].Trace.Samples[j] != got[i].Trace.Samples[j] {
				t.Fatalf("observation %d sample %d mismatch", i, j)
			}
		}
	}
}

func writeCorpus(t *testing.T, path string, obs []emleak.Observation, opts Options) *Writer {
	t.Helper()
	w, err := NewWriter(path, 8, opts)
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
	return w
}

func TestV2RoundTripSingleShard(t *testing.T) {
	obs := testCampaign(t, 9)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	w := writeCorpus(t, path, obs, Options{ChunkObs: 4}) // forces partial final chunk
	if st := w.Stats(); st.Observations != 9 || st.Shards != 1 {
		t.Fatalf("stats = %+v", st)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 8 || c.Count() != 9 || c.Shards() != 1 {
		t.Fatalf("corpus n=%d count=%d shards=%d", c.N(), c.Count(), c.Shards())
	}
	back, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, obs, back)
}

func TestV2RoundTripMultiShard(t *testing.T) {
	obs := testCampaign(t, 10)
	dir := t.TempDir()
	path := filepath.Join(dir, "traces.fdt2")
	var shards int
	w := writeCorpus(t, path, obs, Options{
		ShardObs: 3,
		ChunkObs: 2,
		OnShard:  func(string, int, int64) { shards++ },
	})
	if shards != 4 || len(w.Paths()) != 4 {
		t.Fatalf("got %d shard callbacks, %d paths; want 4", shards, len(w.Paths()))
	}

	// The unsharded -out spelling must resolve to the shard set.
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Shards() != 4 || c.Count() != 10 {
		t.Fatalf("shards=%d count=%d", c.Shards(), c.Count())
	}
	back, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, obs, back)

	// A directory of shards must also resolve.
	cd, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cd.Count() != 10 {
		t.Fatalf("directory open count = %d", cd.Count())
	}

	// Iterating twice must yield the corpus twice (replayable source).
	again, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, obs, again)
}

func TestGoldenV1Compat(t *testing.T) {
	want := testCampaign(t, 7)
	golden := filepath.Join("testdata", "golden_v1.fdtr")

	// The streaming path reads the legacy blob as a single-shard corpus.
	c, err := Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 8 || c.Count() != 7 {
		t.Fatalf("golden corpus n=%d count=%d", c.N(), c.Count())
	}
	back, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, want, back)

	// The in-memory compat path agrees.
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, obs, err := ReadV1(f)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 {
		t.Fatalf("ReadV1 n = %d", n)
	}
	sameObservations(t, want, obs)

	// WriteV1 must still emit the historical byte layout exactly.
	var buf bytes.Buffer
	if err := WriteV1(&buf, 8, want); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatal("WriteV1 output diverges from the golden v1 file")
	}
}

func TestV1RejectsGarbage(t *testing.T) {
	if _, _, err := ReadV1(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, _, err := ReadV1(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	obs := testCampaign(t, 2)
	var buf bytes.Buffer
	if err := WriteV1(&buf, 8, obs); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, _, err := ReadV1(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated v1 file: err = %v, want ErrBadFormat", err)
	}
	bad := append([]byte(nil), raw...)
	bad[4] = 99
	if _, _, err := ReadV1(bytes.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("bad version: err = %v, want ErrBadFormat", err)
	}

	// The corpus path additionally rejects v1 blobs whose size disagrees
	// with the header (trailing garbage would silently vanish otherwise).
	path := filepath.Join(t.TempDir(), "trailing.fdtr")
	if err := os.WriteFile(path, append(append([]byte(nil), raw...), 0xAB), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("v1 with trailing garbage: err = %v, want ErrBadFormat", err)
	}
}

func TestCorruptChunkFailsChecksum(t *testing.T) {
	obs := testCampaign(t, 6)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	writeCorpus(t, path, obs, Options{ChunkObs: 3})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in the second chunk.
	secondChunk := headerSize + chunkHdrSize + 3*observationSize(8)
	raw[secondChunk+chunkHdrSize+17] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path) // index is intact, so open succeeds
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(c)
	if !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped chunk: err = %v, want ErrChecksum", err)
	}
	if len(got) != 0 {
		// ReadAll returns nothing on error; the first (intact) chunk must
		// not leak through as a partial corpus.
		t.Fatalf("corrupt corpus yielded %d observations", len(got))
	}

	// Corrupting the footer index must fail at Open.
	raw[secondChunk+chunkHdrSize+17] ^= 0x40 // restore payload
	raw[len(raw)-trailerSize-3] ^= 0x01      // flip an index byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt index: err = %v, want ErrChecksum", err)
	}
}

func TestTruncatedShardRejected(t *testing.T) {
	obs := testCampaign(t, 4)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	writeCorpus(t, path, obs, Options{})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(raw) - 1, len(raw) - trailerSize, headerSize + 5, 3} {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestOpenMissingCorpus(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope.fdt2")); err == nil {
		t.Fatal("missing corpus accepted")
	}
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrBadFormat) {
		t.Fatal("empty directory accepted")
	}
}

func TestSliceSource(t *testing.T) {
	obs := testCampaign(t, 3)
	src := NewSliceSource(8, obs)
	if src.N() != 8 || src.Count() != 3 {
		t.Fatalf("n=%d count=%d", src.N(), src.Count())
	}
	back, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, obs, back)
}

// acquireTo runs a campaign with the given worker count and returns the
// concatenated shard bytes.
func acquireTo(t *testing.T, dir string, workers int) []byte {
	t.Helper()
	priv, _, err := falcon.GenerateKey(8, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: 1.5}, 42)
	path := filepath.Join(dir, "traces.fdt2")
	w, err := NewWriter(path, 8, Options{ShardObs: 7, ChunkObs: 3})
	if err != nil {
		t.Fatal(err)
	}
	var last int
	err = Acquire(context.Background(), dev, 99, 20, w, AcquireOptions{
		Workers:  workers,
		Progress: func(done, total int) { last = done },
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if last != 20 {
		t.Fatalf("final progress callback reported %d, want 20", last)
	}
	var all []byte
	for _, p := range w.Paths() {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, raw...)
	}
	return all
}

func TestAcquireDeterministicAcrossWorkers(t *testing.T) {
	serial := acquireTo(t, t.TempDir(), 1)
	for _, workers := range []int{2, 8} {
		if got := acquireTo(t, t.TempDir(), workers); !bytes.Equal(serial, got) {
			t.Fatalf("corpus bytes differ between workers=1 and workers=%d", workers)
		}
	}
}

func TestAcquireMatchesObservationAt(t *testing.T) {
	priv, _, err := falcon.GenerateKey(8, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: 1.5}, 42)
	path := filepath.Join(t.TempDir(), "traces.fdt2")
	w, err := NewWriter(path, 8, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Acquire(context.Background(), dev, 7, 5, w, AcquireOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]emleak.Observation, 5)
	for i := range want {
		o, err := emleak.ObservationAt(dev.Clone(0), 7, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = o
	}
	sameObservations(t, want, got)
}

// parkLowest returns an afterClaim hook that holds the worker which
// claimed index lo until every reorder-window slot is taken — the
// schedule in which a worker that claims its index before taking a slot
// waits forever for a slot only its own index could free.
func parkLowest(lo int) func(int, func() bool) {
	return func(idx int, windowFull func() bool) {
		if idx != lo {
			return
		}
		for !windowFull() {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestAcquireLowestIndexParkedUntilWindowFull(t *testing.T) {
	priv, _, err := falcon.GenerateKey(8, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: 1.5}, 42)
	var want, got sliceAppender
	if err := Acquire(context.Background(), dev, 7, 40, &want, AcquireOptions{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, start := range []int{0, 3} {
		got.obs = append(got.obs[:0], want.obs[:start]...)
		if err := Acquire(context.Background(), dev, 7, 40, &got, AcquireOptions{
			Workers: 3, Start: start, afterClaim: parkLowest(start),
		}); err != nil {
			t.Fatal(err)
		}
		sameObservations(t, want.obs, got.obs)
	}
}

// sliceAppender collects committed observations in order.
type sliceAppender struct{ obs []emleak.Observation }

func (a *sliceAppender) Append(o emleak.Observation) error {
	a.obs = append(a.obs, o)
	return nil
}
