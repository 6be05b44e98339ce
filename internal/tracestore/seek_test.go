package tracestore

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"falcondown/internal/emleak"
)

// opaque hides every method of a Source but the interface's, so passes
// over it take IterateFrom's discarding fallback.
type opaque struct{ Source }

func drain(t *testing.T, it Iterator) []emleak.Observation {
	t.Helper()
	defer it.Close()
	var out []emleak.Observation
	for {
		o, err := it.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
}

func TestIterateFromMatchesDiscardedPass(t *testing.T) {
	// Every source kind, started at every observation index, yields the
	// tail a full pass yields from that index on.
	obs := testCampaign(t, 23)
	dir := t.TempDir()
	sharded := filepath.Join(dir, "sharded", "traces.fdt2")
	if err := os.Mkdir(filepath.Dir(sharded), 0o755); err != nil {
		t.Fatal(err)
	}
	writeCorpus(t, sharded, obs, Options{ShardObs: 7, ChunkObs: 3})
	multi, err := Open(sharded)
	if err != nil {
		t.Fatal(err)
	}

	// A lenient corpus that quarantined its second chunk.
	damaged := filepath.Join(dir, "damaged.fdt2")
	writeCorpus(t, damaged, obs, Options{ChunkObs: 3})
	raw, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+2*chunkHdrSize+3*observationSize(8)+17] ^= 0x40
	if err := os.WriteFile(damaged, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	lenient, health, err := OpenLenient(damaged)
	if err != nil {
		t.Fatal(err)
	}
	if len(health.Quarantined) != 1 || lenient.Count() != len(obs)-3 {
		t.Fatalf("lenient corpus: health %+v, count %d", health, lenient.Count())
	}

	v1path := filepath.Join(dir, "legacy.fdtr")
	f, err := os.Create(v1path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV1(f, 8, obs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	v1, err := Open(v1path)
	if err != nil {
		t.Fatal(err)
	}

	sources := []struct {
		name string
		src  Source
	}{
		{"sharded", multi},
		{"lenient", lenient},
		{"v1", v1},
		{"masked", NewMaskedSource(multi, []int{0, 4, 5, 11, 22})},
		{"masked twice", NewMaskedSource(NewMaskedSource(multi, []int{3, 9}), []int{0, 1, 7})},
		{"slice", NewSliceSource(8, obs)},
		{"not a seeker", opaque{multi}},
		{"masked over not a seeker", NewMaskedSource(opaque{multi}, []int{2, 6})},
	}
	for _, c := range sources {
		all, err := ReadAll(c.src)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != c.src.Count() {
			t.Fatalf("%s: a full pass yields %d of %d observations", c.name, len(all), c.src.Count())
		}
		for start := 0; start <= len(all)+1; start++ {
			it, err := IterateFrom(c.src, start)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, it)
			if len(got) != len(all[min(start, len(all)):]) {
				t.Fatalf("%s: a pass from %d yields %d observations, want %d", c.name, start, len(got), len(all[min(start, len(all)):]))
			}
			sameObservations(t, all[min(start, len(all)):], got)
		}
	}

	// A transient failure while discarding consumes nothing: the retried
	// pass still starts at its first observation.
	src := &transientBatchSource{inner: NewSliceSource(8, obs)}
	var got []emleak.Observation
	err = ForEachBatch(src, 5, 4, []time.Duration{0}, func(batch []emleak.Observation) error {
		got = append(got, batch...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sameObservations(t, obs[5:], got)
}

func TestSerialPassAllocationsDoNotGrowWithTraces(t *testing.T) {
	// A serial pass over a corpus reads each chunk into one reused buffer
	// and decodes into the walker's reused observations, so what it
	// allocates is fixed per pass, not per trace or per chunk.
	obs := testCampaign(t, 2048)
	dir := t.TempDir()
	allocs := func(count int) float64 {
		path := filepath.Join(dir, fmt.Sprintf("traces-%d.fdt2", count))
		writeCorpus(t, path, obs[:count], Options{ChunkObs: 256})
		c, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		pass := func() {
			seen := 0
			err := ForEachBatch(c, 0, 64, nil, func(batch []emleak.Observation) error {
				seen += len(batch)
				return nil
			})
			if err != nil || seen != count {
				t.Fatalf("a %d-trace pass saw %d observations: %v", count, seen, err)
			}
		}
		pass()
		return testing.AllocsPerRun(5, pass)
	}
	small, large := allocs(256), allocs(2048)
	if large > small {
		t.Fatalf("a serial pass allocates %.0f times over 2048 traces and %.0f over 256", large, small)
	}
}
