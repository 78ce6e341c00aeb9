// Command ddprofd is the data-dependence profiling daemon: a long-lived
// service that accepts recorded DDT2 trace streams from many concurrent
// clients (ddprof -remote) over TCP and Unix sockets, profiles each session
// on its own parallel pipeline, and returns the dependence set as one DDP1
// binary profile when the stream ends. Questions about a session are asked of
// that profile, offline: save it with `ddprof -remote … -format binary -o`,
// compare two with `ddiff -binary`, and get loop verdicts from
// `ddprof parallelism`.
//
// Usage:
//
//	ddprofd                                  # TCP on :7077, metrics on :7078
//	ddprofd -listen :9000 -unix /tmp/dd.sock # both transports
//	ddprofd -budget 32 -session-workers 8    # bigger worker pool
//	ddprofd -log-level warn                  # no per-session lifecycle lines
//	curl localhost:7078/metrics              # live pipeline counters and gauges
//	curl localhost:7078/sessions             # live session table
//	go tool pprof localhost:7078/debug/pprof/profile
//	curl -o t.out 'localhost:7078/debug/pprof/trace?seconds=5'  # timeline: go tool trace t.out
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
		httpAddr = flag.String("http", ":7078", "HTTP address for /metrics, /sessions and /debug/pprof (empty to disable)")
		budget   = flag.Int("budget", 16, "global pipeline worker budget shared by all sessions")
		perSess  = flag.Int("session-workers", 4, "pipeline workers per session (cap; shrinks when the budget runs low)")
		maxSess  = flag.Int("max-sessions", 64, "maximum concurrent sessions")
		slots    = flag.Int("slots", 1<<20, "signature slots per session")
		backend  = flag.String("backend", "", "default store backend spec for sessions that request none: "+strings.Join(sig.BackendNames(), " | ")+", each name[:key=val,...]")
		storeMax = flag.Uint64("store-budget", 0, "per-session store admission budget in bytes; unbounded or oversized backends are refused (0 = no limit)")
		idle     = flag.Duration("idle", 30*time.Second, "slow-client deadline: sessions silent this long are evicted")
		drain    = flag.Duration("drain", 30*time.Second, "graceful drain window on SIGTERM")
		logLevel = flag.String("log-level", "info", "log level: debug, info (per-session lifecycle lines), warn or error")
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
	// info-level events, so -log-level warn mutes them.
	logf := func(format string, args ...any) {
		logger.Info(fmt.Sprintf(format, args...))
	}
	srv := server.New(server.Config{
		WorkerBudget:      *budget,
		WorkersPerSession: *perSess,
		MaxSessions:       *maxSess,
		SessionSlots:      *slots,
		DefaultBackend:    *backend,
		MaxStoreBytes:     *storeMax,
		IdleTimeout:       *idle,
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
