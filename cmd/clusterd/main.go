// Command clusterd is the attack-fleet worker daemon: a stateless node
// that computes shard partials for a coordinator (campaignd -fleet, or
// cmd/attack -cluster). It serves POST /task over the CRC-framed
// HTTP/JSON protocol of internal/cluster, resolving corpus names under
// its -root — typically a shared (or replicated) copy of the
// coordinator's store.
//
// Workers hold no campaign state: killing one mid-sweep loses nothing
// but the lease, which the coordinator re-issues to another node. The
// differential suite (and the smoke script's chaos stage) prove the
// final key is byte-identical regardless.
//
// Observability: GET /metrics (Prometheus text), GET /metricsz (JSON
// snapshot), GET /healthz (build identity plus serving tallies), and —
// only with -pprof — net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"falcondown/internal/cluster"
	"falcondown/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9100", "listen address")
	root := flag.String("root", "", "directory corpus names resolve under (required; created if missing — a diskless worker starts empty and pulls shards from the coordinator's blob service)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default: profiling endpoints expose process internals)")
	verbose := flag.Bool("v", false, "verbose logging (debug level)")
	quiet := flag.Bool("q", false, "quiet logging (warnings and errors only)")
	flag.Parse()

	logger := obs.NewLogger("clusterd")
	logger.SetLevel(obs.LevelFromFlags(*verbose, *quiet))

	if *root == "" {
		fmt.Fprintln(os.Stderr, "clusterd: -root is required")
		flag.Usage()
		os.Exit(2)
	}
	// A missing root is not an error: a diskless worker owns no replica
	// and fills its root from coordinator shard push, so all it needs is
	// a writable directory.
	if err := os.MkdirAll(*root, 0o755); err != nil {
		logger.Errorf("%v", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Errorf("%v", err)
		os.Exit(1)
	}
	logger.Infof("serving corpora under %s on %s", *root, ln.Addr())
	mux := http.NewServeMux()
	obs.Default().Mount(mux, "clusterd", *pprofOn)
	w := cluster.NewWorker(*root)
	mux.Handle("/", w.Handler())
	if *pprofOn {
		logger.Infof("pprof mounted at /debug/pprof/")
	}
	httpSrv := &http.Server{Handler: mux}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.Errorf("%v", err)
			os.Exit(1)
		}
	}()

	// Graceful on SIGTERM/SIGINT; SIGKILL is the node-loss case the
	// coordinator's leases exist for — nothing here needs to survive it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	<-sig
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	logger.Infof("stopped")
}
