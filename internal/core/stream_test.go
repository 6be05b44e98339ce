package core

import (
	"path/filepath"
	"testing"

	"falcondown/internal/tracestore"
)

func TestStreamedAttackMatchesInMemory(t *testing.T) {
	// The streamed out-of-core attack must be bit-identical to the
	// in-memory path: both drive the same accumulator jobs in the same
	// observation order.
	n, traces := 16, 1500
	if testing.Short() {
		n, traces = 8, 400 // race-mode budget; parity holds at any size
	}
	dev, _, pub := deviceFor(t, n, 2.0, 14)
	obs := collect(t, dev, traces, 15)

	dir := t.TempDir()
	path := filepath.Join(dir, "traces.fdt2")
	w, err := tracestore.NewWriter(path, n, tracestore.Options{ShardObs: (traces + 2) / 3})
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
	if corpus.Shards() != 3 || corpus.Count() != traces {
		t.Fatalf("corpus shards=%d count=%d", corpus.Shards(), corpus.Count())
	}

	memFFT, memVals, err := AttackFFTfFrom(tracestore.NewSliceSource(n, obs), Config{})
	if err != nil {
		t.Fatal(err)
	}
	diskFFT, diskVals, err := AttackFFTfFrom(corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(memFFT) != len(diskFFT) || len(memVals) != len(diskVals) {
		t.Fatalf("shape mismatch: %d/%d values vs %d/%d",
			len(memFFT), len(memVals), len(diskFFT), len(diskVals))
	}
	for k := range memFFT {
		if memFFT[k] != diskFFT[k] {
			t.Fatalf("coefficient %d differs between streamed and in-memory attack", k)
		}
	}
	for v := range memVals {
		m, d := memVals[v], diskVals[v]
		if m.Value != d.Value || m.SignCorr != d.SignCorr || m.ExpCorr != d.ExpCorr ||
			m.PruneCorr != d.PruneCorr || m.RunnerUpGap != d.RunnerUpGap ||
			m.Escalated != d.Escalated || m.Significant != d.Significant ||
			m.TracesUsed != d.TracesUsed {
			t.Fatalf("value %d report differs: mem %+v disk %+v", v, m, d)
		}
	}

	if testing.Short() {
		return // the full-pipeline check below needs the larger campaign
	}

	// And the full pipeline: same forged-capable key from disk.
	memPriv, memRep, err := RecoverKey(obs, pub, Config{})
	if err != nil {
		t.Fatal(err)
	}
	diskPriv, diskRep, err := RecoverKeyFrom(corpus, pub, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range memPriv.Fs {
		if memPriv.Fs[i] != diskPriv.Fs[i] || memPriv.Gs[i] != diskPriv.Gs[i] {
			t.Fatalf("recovered key differs at %d", i)
		}
	}
	if memRep.MinPrune != diskRep.MinPrune || memRep.Significant != diskRep.Significant {
		t.Fatalf("reports differ: mem %+v disk %+v", memRep, diskRep)
	}
}

func TestStreamedAttackMatchesInMemoryFalcon64(t *testing.T) {
	// Parity at FALCON-64: the streamed corpus attack must reproduce the
	// in-memory attack value-for-value (including any errors the
	// downstream recovery would report). A reduced trace budget keeps
	// this a structural check, not a success check.
	if testing.Short() {
		t.Skip("covered at n=8 by TestStreamedAttackMatchesInMemory in short mode")
	}
	dev, _, _ := deviceFor(t, 64, 2.0, 21)
	obs := collect(t, dev, 400, 22)

	path := filepath.Join(t.TempDir(), "traces.fdt2")
	w, err := tracestore.NewWriter(path, 64, tracestore.Options{ShardObs: 150})
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

	memFFT, memVals, err := AttackFFTfFrom(tracestore.NewSliceSource(64, obs), Config{})
	if err != nil {
		t.Fatal(err)
	}
	diskFFT, diskVals, err := AttackFFTfFrom(corpus, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for k := range memFFT {
		if memFFT[k] != diskFFT[k] {
			t.Fatalf("coefficient %d differs between streamed and in-memory attack", k)
		}
	}
	for v := range memVals {
		m, d := memVals[v], diskVals[v]
		if m.Value != d.Value || m.SignCorr != d.SignCorr || m.ExpCorr != d.ExpCorr ||
			m.PruneCorr != d.PruneCorr || m.RunnerUpGap != d.RunnerUpGap ||
			m.Escalated != d.Escalated || m.Significant != d.Significant {
			t.Fatalf("value %d report differs: mem %+v disk %+v", v, m, d)
		}
		if len(m.ExpAlternatives) != len(d.ExpAlternatives) {
			t.Fatalf("value %d alternatives differ", v)
		}
		for i := range m.ExpAlternatives {
			if m.ExpAlternatives[i] != d.ExpAlternatives[i] {
				t.Fatalf("value %d alternatives differ", v)
			}
		}
	}
}

func TestStreamedAttackNoTraces(t *testing.T) {
	if _, _, err := AttackFFTfFrom(nil, Config{}); err == nil {
		t.Fatal("nil source accepted")
	}
	if _, _, err := AttackFFTfFrom(tracestore.NewSliceSource(16, nil), Config{}); err == nil {
		t.Fatal("empty source accepted")
	}
}
