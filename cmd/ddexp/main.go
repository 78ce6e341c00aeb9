// Command ddexp regenerates the paper's tables and figures.
//
// Usage:
//
//	ddexp table1            # Table I  (FPR/FNR vs signature size)
//	ddexp table2            # Table II (parallelizable NAS loops)
//	ddexp fig5              # Figure 5 (sequential-target slowdowns)
//	ddexp fig6              # Figure 6 (parallel-target slowdowns)
//	ddexp fig7              # Figure 7 (memory, sequential targets)
//	ddexp fig8              # Figure 8 (memory, parallel targets)
//	ddexp fig9              # Figure 9 (water-spatial communication matrix)
//	ddexp eq2               # Equation (2) validation
//	ddexp merge             # dependence-merging ablation (§III-B)
//	ddexp stores            # signature vs hash table vs shadow memory (§III-B)
//	ddexp balance           # worker load balance: modulo vs redistribution vs round-robin
//	ddexp sweep             # full FPR/FNR-vs-signature-size curve (rotate)
//	ddexp all               # everything above
//
// Flags: -scale N (problem size multiplier), -paper (paper-scale signature
// sizes and repetitions), -only a,b,c (restrict to named workloads),
// -reps N (timing repetitions), -metrics addr (serve live pipeline counters
// plus /debug/pprof over HTTP while the experiments run; a timeline is
// /debug/pprof/trace), -log-level (debug|info|warn|error).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	"ddprof/internal/exp"
	"ddprof/internal/report"
	"ddprof/internal/telemetry"
	"ddprof/internal/workloads"
)

func main() {
	var (
		scale    = flag.Float64("scale", 0, "workload problem-size multiplier (0 = default)")
		paper    = flag.Bool("paper", false, "use the paper's signature sizes (1e6/1e7/1e8) and 3 timing reps")
		only     = flag.String("only", "", "comma-separated workload names to restrict to")
		reps     = flag.Int("reps", 0, "timing repetitions (0 = default)")
		metrics  = flag.String("metrics", "", "HTTP address serving live /metrics and /debug/pprof while experiments run (e.g. :7078)")
		logLevel = flag.String("log-level", "info", "log level: debug, info, warn or error")
	)
	flag.Parse()

	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintf(os.Stderr, "ddexp: bad -log-level %q (want debug, info, warn or error)\n", *logLevel)
		os.Exit(2)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	slog.SetDefault(logger)

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ddexp [flags] table1|table2|fig5|fig6|fig7|fig8|fig9|eq2|merge|stores|balance|sweep|all")
		os.Exit(2)
	}
	var onlyNames []string
	if *only != "" {
		onlyNames = strings.Split(*only, ",")
	}
	if err := checkOnly(onlyNames); err != nil {
		fmt.Fprintln(os.Stderr, "ddexp:", err)
		os.Exit(2)
	}

	// Observability for the experiment run: live counters on the shared
	// default registry and a metrics server that is shut down cleanly once
	// the experiments finish instead of leaking until process exit.
	var metricsSrv *http.Server
	if *metrics != "" {
		exp.Telemetry = telemetry.Default().Pipeline("pipeline")
		metricsSrv = &http.Server{Addr: *metrics, Handler: telemetry.DebugMux(telemetry.Default())}
		go func() {
			logger.Info("ddexp: metrics server up", "url", "http://"+*metrics+"/metrics")
			if err := metricsSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("ddexp: metrics server", "err", err)
			}
		}()
	}
	// shutdownObservability runs on every exit path (including failures) so
	// the listener is released.
	shutdownObservability := func() {
		if metricsSrv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := metricsSrv.Shutdown(ctx); err != nil {
				logger.Warn("ddexp: metrics server shutdown", "err", err)
			}
		}
	}
	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format, args...)
		shutdownObservability()
		os.Exit(1)
	}

	opt := exp.Defaults()
	if *paper {
		opt = exp.PaperScale()
	}
	if *scale > 0 {
		opt.Scale = *scale
	}
	if *reps > 0 {
		opt.Reps = *reps
	}
	opt.Only = onlyNames

	runners := map[string]func(exp.Options) error{
		"table1": func(o exp.Options) error { return render(exp.Table1(o)) },
		"table2": func(o exp.Options) error { return render(exp.Table2(o)) },
		"fig5":   func(o exp.Options) error { return render(exp.Fig5(o)) },
		"fig6":   func(o exp.Options) error { return render(exp.Fig6(o)) },
		"fig7":   func(o exp.Options) error { return render(exp.Fig7(o)) },
		"fig8":   func(o exp.Options) error { return render(exp.Fig8(o)) },
		"fig9": func(o exp.Options) error {
			tab, res, err := exp.Fig9(o)
			if err != nil {
				return err
			}
			tab.Render(os.Stdout)
			fmt.Println()
			fmt.Println(res.Heatmap)
			return nil
		},
		"eq2":   func(o exp.Options) error { return render(exp.Eq2(o)) },
		"merge": func(o exp.Options) error { return render(exp.MergeAblation(o)) },
		"stores": func(o exp.Options) error {
			if err := render(exp.StoreAblation(o)); err != nil {
				return err
			}
			return render(exp.StoreAccuracy(o))
		},
		"balance": func(o exp.Options) error { return render(exp.Balance(o)) },
		"sweep":   func(o exp.Options) error { return render(exp.Sweep(o, "rotate")) },
	}
	order := []string{"table1", "table2", "fig5", "fig6", "fig7", "fig8", "fig9", "eq2", "merge", "stores", "balance", "sweep"}

	runOne := func(name string, fn func(exp.Options) error) error {
		logger.Debug("ddexp: running experiment", "name", name)
		return fn(opt)
	}

	what := flag.Arg(0)
	if what == "all" {
		for _, name := range order {
			fmt.Printf("== %s ==\n", name)
			if err := runOne(name, runners[name]); err != nil {
				fail("ddexp %s: %v\n", name, err)
			}
			fmt.Println()
		}
		shutdownObservability()
		return
	}
	run, ok := runners[what]
	if !ok {
		fmt.Fprintf(os.Stderr, "ddexp: unknown experiment %q\n", what)
		os.Exit(2)
	}
	if err := runOne(what, run); err != nil {
		fail("ddexp: %v\n", err)
	}
	shutdownObservability()
}

// checkOnly refuses -only names no workload answers to: an experiment
// filtered down to nothing prints an empty table and exits 0.
func checkOnly(names []string) error {
	for _, n := range names {
		if _, ok := workloads.ByName(n); !ok {
			return fmt.Errorf("-only: unknown workload %q (ddprof -list shows the names)", n)
		}
	}
	return nil
}

// render prints a (table, rows, err) experiment result, discarding rows.
func render[T any](tab *report.Table, _ T, err error) error {
	if err != nil {
		return err
	}
	tab.Render(os.Stdout)
	return nil
}
