// Command ddprofd is the data-dependence profiling daemon: a long-lived
// service that accepts recorded trace streams from many concurrent clients
// (ddprof -remote) over TCP and Unix sockets, profiles each session on its
// own parallel pipeline, and returns the dependence set in the binary
// profile format.
//
// Usage:
//
//	ddprofd                                  # TCP on :7077, metrics on :7078
//	ddprofd -listen :9000 -unix /tmp/dd.sock # both transports
//	ddprofd -budget 32 -session-workers 8    # bigger worker pool
//	ddprofd -log-level debug                 # structured logs, debug level
//	curl localhost:7078/metrics              # live pipeline counters + quantiles
//	curl localhost:7078/sessions             # live session table
//	curl localhost:7078/sessions/3/deps      # live dependence profile (?since=E)
//	curl localhost:7078/sessions/3/loop/0/carried   # what loop 0 carries now
//	curl 'localhost:7078/sessions/3/addr?lo=0x100&hi=0x1ff'
//	curl --data-binary @base.ddp localhost:7078/sessions/3/diff
//	curl localhost:7078/debug/timeline       # flight-recorder time series
//	go tool pprof localhost:7078/debug/pprof/profile
//	ddprof -workload kmeans -remote :7077 -watch   # live epoch-delta stream
//
// SIGINT/SIGTERM drain gracefully: listeners close, in-flight sessions
// finish (up to -drain), then the daemon exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ddprof/internal/server"
	"ddprof/internal/sig"
)

// parseLevel maps the -log-level flag to a slog level.
func parseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", s)
}

func main() {
	var (
		listen   = flag.String("listen", ":7077", "TCP listen address (empty to disable)")
		unixSock = flag.String("unix", "", "Unix socket path (empty to disable)")
		httpAddr = flag.String("http", ":7078", "HTTP address for /metrics, /sessions, /debug/timeline and /debug/pprof (empty to disable)")
		budget   = flag.Int("budget", 16, "global pipeline worker budget shared by all sessions")
		perSess  = flag.Int("session-workers", 4, "pipeline workers per session (cap; shrinks when the budget runs low)")
		maxSess  = flag.Int("max-sessions", 64, "maximum concurrent sessions")
		slots    = flag.Int("slots", 1<<20, "signature slots per session")
		backend  = flag.String("backend", "", "default store backend spec for sessions that request none: "+strings.Join(sig.BackendNames(), " | ")+", each name[:key=val,...]")
		storeMax = flag.Uint64("store-budget", 0, "per-session store admission budget in bytes; unbounded or oversized backends are refused (0 = no limit)")
		idle     = flag.Duration("idle", 30*time.Second, "slow-client deadline: sessions silent this long are evicted")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain window on SIGTERM")
		quiet    = flag.Bool("q", false, "suppress per-session log lines")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
		snapInt  = flag.Duration("snapshot-interval", 250*time.Millisecond, "flight-recorder sampling interval for /debug/timeline")
		snapN    = flag.Int("snapshot-samples", 1024, "flight-recorder ring size (most recent samples kept; negative disables)")
		epochInt = flag.Duration("epoch-interval", 100*time.Millisecond, "live observatory epoch clock: an ingesting session cuts an epoch-delta for watch subscribers at the first batch this long after its last interval cut (0 disables; explicit EpochMark records still cut)")
		seriesMx = flag.Int("session-series", 64, "cap on per-session labeled series on /metrics; sessions past it share the overflow series")
	)
	flag.Parse()

	lvl, err := parseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddprofd:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	if *listen == "" && *unixSock == "" {
		fmt.Fprintln(os.Stderr, "ddprofd: nothing to listen on (-listen and -unix both empty)")
		os.Exit(2)
	}

	// Session lifecycle lines arrive printf-style from the server; they are
	// info-level events and -q mutes just them.
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	if *quiet {
		logf = func(string, ...any) {}
	}
	srv := server.New(server.Config{
		WorkerBudget:      *budget,
		WorkersPerSession: *perSess,
		MaxSessions:       *maxSess,
		SessionSlots:      *slots,
		DefaultBackend:    *backend,
		MaxStoreBytes:     *storeMax,
		IdleTimeout:       *idle,
		SnapshotInterval:  *snapInt,
		SnapshotSamples:   *snapN,
		EpochInterval:     *epochInt,
		SessionSeriesMax:  *seriesMx,
		Logf:              logf,
	})

	errc := make(chan error, 3)
	serve := func(network, addr string) {
		ln, err := net.Listen(network, addr)
		if err != nil {
			errc <- fmt.Errorf("listen %s %s: %w", network, addr, err)
			return
		}
		logger.Info("ddprofd: listening", "network", network, "addr", ln.Addr().String())
		errc <- srv.Serve(ln)
	}
	if *listen != "" {
		go serve("tcp", *listen)
	}
	if *unixSock != "" {
		os.Remove(*unixSock) // stale socket from a previous run
		go serve("unix", *unixSock)
	}

	var httpSrv *http.Server
	if *httpAddr != "" {
		httpSrv = &http.Server{Addr: *httpAddr, Handler: srv.HTTPHandler()}
		go func() {
			logger.Info("ddprofd: observability endpoints up",
				"metrics", "http://"+*httpAddr+"/metrics",
				"timeline", "http://"+*httpAddr+"/debug/timeline",
				"pprof", "http://"+*httpAddr+"/debug/pprof/")
			if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errc <- err
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("ddprofd: draining", "signal", sig.String(), "window", drain.String())
	case err := <-errc:
		if err != nil {
			logger.Error("ddprofd: serve failed", "err", err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("ddprofd: drain incomplete", "err", err)
	}
	if httpSrv != nil {
		httpSrv.Shutdown(context.Background())
	}
	if *unixSock != "" {
		os.Remove(*unixSock)
	}
	logger.Info("ddprofd: bye")
}
