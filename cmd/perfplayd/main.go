// Command perfplayd is the PerfPlay analysis daemon: a long-running
// HTTP service that accepts analysis jobs — a workload spec or a stored
// trace's digest — runs up to -workers of them at once through
// internal/pipeline, one goroutine each (a job forks its replays beside
// classification, so it may hold two cores), off a bounded job queue, and
// serves the ranked reports back as JSON. Every job moves
// through the lifecycle in internal/jobs; this command is its HTTP
// front end. docs/API.md is the route reference (CI diffs it against
// -print-routes), docs/OBSERVABILITY.md the metric and span catalog.
//
// Usage:
//
//	perfplayd [-addr :8080] [-workers 2]
//	          [-queue 64] [-cache 128] [-max-jobs 1024]
//	          [-corpus perfplay-corpus] [-corpus-max-bytes 0]
//	          [-journal-dir auto|DIR|""]
//	          [-peers http://h1:8080,http://h2:8080]
//	          [-advertise http://me:8080] [-steal-interval 1s]
//	          [-steal-lease 2m0s] [-cache-probe-timeout 250ms]
//	          [-cache-probe-fanout 2] [-cache-hint-keys 32]
//	          [-node name] [-pprof] [-print-routes]
//	perfplayd submit -daemon http://host:8080 -app mysql | -trace-digest sha256:...
//
// Each value shown is the flag's default. The scheduling knobs'
// defaults are jobs.Defaults(), and an explicit 0 for one of them is
// refused; -corpus-max-bytes 0 means 1 GiB.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, waits for
// in-flight requests and running jobs, then exits.
//
// Durability: each job's admission and its one terminal record (settled
// or failed) are fsynced to an append-only journal (-journal-dir, by
// default <corpus>-journal), and a restarted daemon replays it — every
// job admitted and not finished, queued or out on a steal lease,
// re-enters the queue in admit order, and determinism makes the re-runs
// byte-identical to the lost ones. -journal-dir "" disables it.
//
// Cluster mode: give every node a -corpus and point it at its peers
// with -peers. An idle node steals whole queued jobs from the busiest
// peer; before running a cache-missed job over a stored trace it probes
// its peers' result and verdict-table caches; a full node's 503 names
// the idlest peer in a Retry-Peer header. A job never leaves its node
// mid-run. See docs/ARCHITECTURE.md "Job lifecycle".
//
// `perfplayd submit` is the daemon's client: it runs one job on a node,
// following Retry-Peer redirects, and prints the report (submit.go).
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
	"slices"
	"strings"
	"syscall"
	"time"

	"perfplay/internal/jobs"
)

// gcPercent is the daemon's GC pacing unless the operator sets GOGC. A
// finished job leaves only its summary behind, so the live heap is the
// in-flight jobs plus buffered uploads — tens of MiB — which Go's default
// of 100 collects every few jobs. daemon-reuse, seed 60, median of three
// runs, GOGC → cpu_ms_per_kevent / op_p50_ms / peak_rss_mb: 100 → 2.22 /
// 12.6 / 48, 200 → 1.62 / 9.3 / 72, 400 → 1.53 / 8.9 / 121, 800 → 1.30 /
// 8.1 / 209; the parent commit, whose result cache pinned ~250 MiB of
// analyses as an accidental ballast, 1.54 / 8.4 / 595. 400 keeps the
// parent's CPU per event at a fifth of its footprint.
// Worst case the heap goal is 5× that live heap, which -workers and
// the 256 MiB upload buffer bound (docs/PERF.md entry 4).
const gcPercent = 400

func main() {
	// The client is dispatched before the server's GC pacing and flags,
	// as `perfplay sim` is before perfplay's.
	if len(os.Args) > 1 && os.Args[1] == "submit" {
		os.Exit(runSubmit(os.Args[2:], os.Stdout, os.Stderr))
	}
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.printRoutes {
		for _, p := range routePatterns() {
			fmt.Println(p)
		}
		return
	}

	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	srv, err := NewServer(o.cfg)
	if err != nil {
		log.Fatal(err)
	}
	srv.Start()
	srv.StartStealer(strings.TrimRight(selfURL(o.advertise, o.addr), "/"))
	cluster := ""
	if len(srv.cfg.Peers) > 0 {
		cluster = " in a pool with " + strings.Join(srv.cfg.Peers, ", ")
	}
	srv.logger.Info(fmt.Sprintf("perfplayd listening on %s (%d job workers, queue %d)%s",
		o.addr, srv.cfg.Workers, srv.cfg.QueueDepth, cluster))

	// Graceful shutdown: SIGINT/SIGTERM stops the listener, drains
	// in-flight HTTP requests, then waits for running jobs. A second
	// signal during the drain kills the process the default way.
	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
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

// options is what the command line sets: the server's Config and the
// few settings main reads itself.
type options struct {
	cfg         Config
	addr        string
	advertise   string
	printRoutes bool
}

// zeroIsDefault names the flags whose Config field reads 0 as "the
// default". Each prints its real default, so an explicit 0 is a
// mistake the daemon would otherwise silently rewrite; parseFlags
// refuses it.
var zeroIsDefault = []string{
	"workers", "queue", "cache", "max-jobs", "steal-interval", "steal-lease",
	"cache-probe-timeout", "cache-probe-fanout", "cache-hint-keys",
}

// parseFlags declares perfplayd's flags on fs, parses args, and
// resolves them into options. The scheduling knobs default to
// jobs.Defaults().
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	c, d := &o.cfg, jobs.Defaults()
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&c.Workers, "workers", d.Workers, "concurrent analysis jobs; a job may hold two cores while its replays run beside classification")
	fs.IntVar(&c.QueueDepth, "queue", d.QueueDepth, "pending-job queue depth (further submits get 503)")
	fs.IntVar(&c.CacheSize, "cache", defaultCacheSize, "LRU result cache capacity")
	fs.IntVar(&c.MaxJobs, "max-jobs", d.MaxJobs, "finished jobs retained before eviction")
	fs.StringVar(&c.CorpusDir, "corpus", "perfplay-corpus", "trace corpus directory (same layout as perfplay -corpus; empty disables /traces)")
	fs.Int64Var(&c.CorpusMaxBytes, "corpus-max-bytes", 0, "corpus byte budget; LRU-evicts unpinned traces beyond it (0 = 1 GiB)")
	journalDir := fs.String("journal-dir", "auto", `crash-durable job journal directory; "auto" derives <corpus>-journal next to the corpus, empty disables durability`)
	peers := fs.String("peers", "", "comma-separated peer base URLs for whole-job stealing, cache probes and admission redirects")
	fs.StringVar(&o.advertise, "advertise", "", "base URL peers should see this node as (default http://<addr>)")
	fs.DurationVar(&c.StealInterval, "steal-interval", d.StealInterval, "idle poll cadence of the whole-job stealer (negative disables stealing)")
	fs.DurationVar(&c.Lease, "steal-lease", d.Lease, "how long a thief may hold a claimed job before it re-queues locally")
	fs.DurationVar(&c.ProbeTimeout, "cache-probe-timeout", d.ProbeTimeout, "per-peer cluster-cache probe timeout")
	fs.IntVar(&c.ProbeFanout, "cache-probe-fanout", d.ProbeFanout, "max peers probed per cache-missed job (sweep-derived; see docs/POLICIES.md)")
	fs.IntVar(&c.HintKeys, "cache-hint-keys", d.HintKeys, "recent result-cache keys gossiped per GET /steal (cache-population hints)")
	fs.StringVar(&c.NodeName, "node", "", "node name on spans and log lines (default: hostname)")
	fs.BoolVar(&c.EnablePprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ (off by default)")
	fs.BoolVar(&o.printRoutes, "print-routes", false, "print the registered HTTP routes, one per line, and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}

	var err error
	fs.Visit(func(f *flag.Flag) {
		if v := f.Value.String(); err == nil && slices.Contains(zeroIsDefault, f.Name) && (v == "0" || v == "0s") {
			err = fmt.Errorf("perfplayd: -%s %s: 0 is not a setting of this flag (its default is %s)", f.Name, v, f.DefValue)
		}
	})
	if err != nil {
		return o, err
	}

	for _, p := range strings.Split(*peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			c.Peers = append(c.Peers, strings.TrimRight(p, "/"))
		}
	}
	if len(c.Peers) > 0 && c.CorpusDir == "" {
		return o, errors.New("perfplayd: -peers requires a -corpus (cluster transfers reference traces by digest)")
	}
	// "auto" puts the journal next to the corpus: both are the node's
	// durable state. A node without a corpus has nowhere to derive it
	// from and runs without a journal; -journal-dir DIR still gives it one.
	c.JournalDir = *journalDir
	if c.JournalDir == "auto" {
		c.JournalDir = ""
		if c.CorpusDir != "" {
			c.JournalDir = strings.TrimRight(c.CorpusDir, "/") + "-journal"
		}
	}
	return o, nil
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
