package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"falcondown/internal/emleak"
	"falcondown/internal/falcon"
	"falcondown/internal/rng"
	"falcondown/internal/supervise"
	"falcondown/internal/tracestore"
)

// victim is one set-up victim: its true key and its opened on-disk corpus.
type victim struct {
	seed        uint64
	priv        *falcon.PrivateKey
	pub         *falcon.PublicKey
	corpus      *tracestore.Corpus
	corpusBytes int64
	digest      string // content digest of the corpus, equal in every set-up
}

// setUp generates every victim of w and acquires its corpus into dir, as
// `tracegen -n N -traces T -noise σ -seed s [-flaky F]` would, then opens
// it. Each public call is timed into l when l is not nil.
func setUp(w workload, dir string, l *layers) ([]*victim, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var set []*victim
	for _, s := range w.victims {
		v, err := setUpVictim(w, s, dir, l)
		if err != nil {
			return nil, fmt.Errorf("victim %d: %w", s, err)
		}
		set = append(set, v)
	}
	return set, nil
}

func setUpVictim(w workload, s uint64, dir string, l *layers) (*victim, error) {
	start := time.Now()
	priv, pub, err := falcon.GenerateKey(w.n, rng.New(s))
	l.add("falcon.keygen_s", time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	dev := emleak.NewDevice(priv.FFTOfF(), emleak.HammingWeight{},
		emleak.Probe{Gain: 1, NoiseSigma: w.sigma}, s+1)
	path := filepath.Join(dir, fmt.Sprintf("victim-%d.fdt2", s))
	wr, err := tracestore.NewWriter(path, w.n, tracestore.Options{})
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	start = time.Now()
	if w.flaky == "" {
		err = tracestore.Acquire(ctx, dev, s+2, w.traces, wr, tracestore.AcquireOptions{Workers: acqWorkers})
		if cerr := wr.Close(); err == nil {
			err = cerr
		}
		d := time.Since(start).Seconds()
		l.add("tracestore.acquire_s", d)
		l.add("tracestore.acquire_traces_per_s", float64(w.traces)/d)
	} else {
		var report *supervise.Report
		report, err = acquireFlaky(ctx, w, s, dev, wr)
		if cerr := wr.Close(); err == nil {
			err = cerr
		}
		l.add("supervise.acquire_s", time.Since(start).Seconds())
		if report != nil {
			l.add("supervise.retried", float64(report.Retried))
		}
	}
	if err != nil {
		return nil, err
	}
	m, err := wr.Manifest()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	corpus, err := tracestore.Open(path)
	l.add("tracestore.open_s", time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	if corpus.Count() != w.traces {
		return nil, fmt.Errorf("corpus holds %d traces, want %d", corpus.Count(), w.traces)
	}
	return &victim{seed: s, priv: priv, pub: pub, corpus: corpus, corpusBytes: wr.Stats().Bytes, digest: m.Digest}, nil
}

// acquireFlaky is tracegen's supervised path for a one-device pool whose
// device misbehaves as w.flaky says.
func acquireFlaky(ctx context.Context, w workload, s uint64, dev *emleak.Device, wr *tracestore.Writer) (*supervise.Report, error) {
	dists, err := emleak.ParseFlakySpec(w.flaky, 1, s)
	if err != nil {
		return nil, err
	}
	pool := []supervise.Device{emleak.NewFlakyDevice(dev, dists[0], nil)}
	return supervise.AcquirePool(ctx, pool, s+2, w.traces, wr, supervise.PoolOptions{Workers: acqWorkers})
}
