// Command perfplayd is the PerfPlay analysis daemon: a long-running
// HTTP service that accepts analysis jobs — a workload spec, a stored
// trace's digest, or an uploaded trace — runs up to -workers of them at
// once through internal/pipeline, one goroutine each, off a bounded job
// queue, and serves the ranked reports back as JSON. Every job moves
// through the lifecycle in internal/jobs; this command is its HTTP
// front end. docs/API.md is the route reference (CI diffs it against
// -print-routes), docs/OBSERVABILITY.md the metric and span catalog.
//
// Usage:
//
//	perfplayd [-addr :8080] [-workers 2]
//	          [-queue 64] [-cache 128] [-max-jobs 1024]
//	          [-corpus perfplay-corpus] [-corpus-max-bytes 1073741824]
//	          [-journal-dir auto|DIR|""]
//	          [-peers http://h1:8080,http://h2:8080]
//	          [-advertise http://me:8080] [-steal-interval 1s]
//	          [-steal-lease 2m] [-cache-probe-timeout 250ms]
//	          [-cache-probe-fanout 2] [-cache-hint-keys 32]
//	          [-node name] [-pprof] [-print-routes]
//
// On SIGINT/SIGTERM the daemon stops accepting connections, waits for
// in-flight requests and running jobs, then exits.
//
// Durability: every job transition is fsynced to an append-only journal
// (-journal-dir, by default <corpus>-journal), and a restarted daemon
// replays it — queued jobs re-enter the queue in admit order, jobs out
// on a steal lease are requeued at the front, and determinism makes the
// re-runs byte-identical to the lost ones. -journal-dir "" disables it.
//
// Cluster mode: give every node a -corpus and point it at its peers
// with -peers. An idle node steals whole queued jobs from the busiest
// peer; before running a cache-missed job over a stored trace it probes
// its peers' result and verdict-table caches; a full node's 503 names
// the idlest peer in a Retry-Peer header. A job never leaves its node
// mid-run. See docs/ARCHITECTURE.md "Job lifecycle".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"perfplay/internal/cachepolicy"
)

// cacheKnobs seeds the cache-layer flag defaults from the shared
// cachepolicy.Defaults() struct — the same values Config.withDefaults
// applies and the clustersim policy lab sweeps — so `-help` prints the
// true, sweep-backed defaults instead of a "0 means N" convention.
var cacheKnobs = cachepolicy.Defaults()

// gcPercent is the daemon's GC pacing unless the operator sets GOGC. A
// finished job leaves only its summary behind, so the live heap is the
// in-flight jobs plus queued uploads — tens of MiB — which Go's default
// of 100 collects every few jobs. daemon-reuse, seed 60, median of three
// runs, GOGC → cpu_ms_per_kevent / op_p50_ms / peak_rss_mb: 100 → 2.22 /
// 12.6 / 48, 200 → 1.62 / 9.3 / 72, 400 → 1.53 / 8.9 / 121, 800 → 1.30 /
// 8.1 / 209; the parent commit, whose result cache pinned ~250 MiB of
// analyses as an accidental ballast, 1.54 / 8.4 / 595. 400 keeps the
// parent's CPU per event at a fifth of its footprint.
// Worst case the heap goal is 5× that live heap, which -workers and
// MaxQueuedTraceBytes bound (docs/PERF.md entry 4).
const gcPercent = 400

func main() {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 2, "concurrent analysis jobs, each on one goroutine")
		queueDepth    = flag.Int("queue", 64, "pending-job queue depth (further submits get 503)")
		cacheSize     = flag.Int("cache", 128, "LRU result cache capacity")
		maxJobs       = flag.Int("max-jobs", 1024, "finished jobs retained before eviction")
		corpusDir     = flag.String("corpus", "perfplay-corpus", "trace corpus directory (same layout as perfplay -corpus; empty disables /traces)")
		corpusBytes   = flag.Int64("corpus-max-bytes", 0, "corpus byte budget; LRU-evicts unpinned traces beyond it (0 = 1 GiB)")
		journalDir    = flag.String("journal-dir", "auto", `crash-durable job journal directory; "auto" derives <corpus>-journal next to the corpus, empty disables durability`)
		peers         = flag.String("peers", "", "comma-separated peer base URLs for whole-job stealing, cache probes and admission redirects")
		advertise     = flag.String("advertise", "", "base URL peers should see this node as (default http://<addr>)")
		stealInterval = flag.Duration("steal-interval", 0, "idle poll cadence of the whole-job stealer (0 = 1s; negative disables stealing)")
		stealLease    = flag.Duration("steal-lease", 0, "how long a thief may hold a claimed job before it re-queues locally (0 = 2m)")
		probeTimeout  = flag.Duration("cache-probe-timeout", cacheKnobs.ProbeTimeout, "per-peer cluster-cache probe timeout")
		probeFanout   = flag.Int("cache-probe-fanout", cacheKnobs.ProbeFanout, "max peers probed per cache-missed job (sweep-derived; see docs/POLICIES.md)")
		hintKeys      = flag.Int("cache-hint-keys", cacheKnobs.HintKeys, "recent result-cache keys gossiped per GET /steal (cache-population hints)")
		nodeName      = flag.String("node", "", "node name on spans and log lines (default: hostname)")
		enablePprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
		printRoutes   = flag.Bool("print-routes", false, "print the registered HTTP routes, one per line, and exit")
	)
	flag.Parse()

	if *printRoutes {
		for _, p := range routePatterns() {
			fmt.Println(p)
		}
		return
	}

	var peerList []string
	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, strings.TrimRight(p, "/"))
		}
	}
	if len(peerList) > 0 && *corpusDir == "" {
		log.Fatal("perfplayd: -peers requires a -corpus (cluster transfers reference traces by digest)")
	}

	// "auto" puts the journal next to the corpus: both are the node's
	// durable state, and a node without a corpus (memory-only uploads
	// are unrecoverable anyway) runs without a journal too.
	jdir := *journalDir
	if jdir == "auto" {
		jdir = ""
		if *corpusDir != "" {
			jdir = strings.TrimRight(*corpusDir, "/") + "-journal"
		}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	srv, err := NewServer(Config{
		Workers:           *workers,
		QueueDepth:        *queueDepth,
		CacheSize:         *cacheSize,
		MaxJobs:           *maxJobs,
		CorpusDir:         *corpusDir,
		CorpusMaxBytes:    *corpusBytes,
		JournalDir:        jdir,
		Peers:             peerList,
		StealInterval:     *stealInterval,
		StealLease:        *stealLease,
		CacheProbeTimeout: *probeTimeout,
		CacheProbeFanout:  *probeFanout,
		CacheHintKeys:     *hintKeys,
		NodeName:          *nodeName,
		Logger:            logger,
		EnablePprof:       *enablePprof,
	})
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	srv.StartStealer(strings.TrimRight(selfURL(*advertise, *addr), "/"))
	cluster := ""
	if len(peerList) > 0 {
		cluster = " in a pool with " + strings.Join(peerList, ", ")
	}
	srv.logger.Info(fmt.Sprintf("perfplayd listening on %s (%d job workers, queue %d)%s",
		*addr, *workers, *queueDepth, cluster))

	// Graceful shutdown: SIGINT/SIGTERM stops the listener, drains
	// in-flight HTTP requests, then waits for running jobs. A second
	// signal during the drain kills the process the default way.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	select {
	case err := <-serveErr:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal force-kills
	srv.logger.Info("shutting down: draining in-flight requests and jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		srv.logger.Warn("shutdown did not drain cleanly", "err", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		srv.logger.Warn("listener error", "err", err)
	}
	srv.Close()
	srv.logger.Info("perfplayd stopped")
}

// selfURL derives the node's advertised base URL. A bare ":8080"-style
// listen address has no host, and advertising "http://:8080" would make
// every stolen_by/lease diagnostic unattributable — substitute the
// machine's hostname so operators can tell nodes apart.
func selfURL(advertise, addr string) string {
	if advertise != "" {
		return advertise
	}
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		if h, err := os.Hostname(); err == nil && h != "" {
			host = h
		} else {
			host = "localhost"
		}
	}
	return "http://" + net.JoinHostPort(host, port)
}
