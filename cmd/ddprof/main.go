// Command ddprof profiles a bundled benchmark program or a minilang source
// file and prints its data dependences in the paper's output format (Figure 1
// / Figure 3) — or, given a report name first, what an analysis plug-in
// (paper §VII, §VIII) makes of the same run.
//
// Usage:
//
//	ddprof -workload kmeans                      # serial profiling
//	ddprof -file prog.ml                         # profile a minilang source file
//	ddprof -workload kmeans -mode parallel -workers 16
//	ddprof -workload kmeans -mode mt -threads 4  # profile the pthread variant
//	ddprof parallelism -workload CG -mode parallel         # loop verdicts (§VII-A)
//	ddprof communication -workload water-spatial -threads 8 # Figure 9 (§VII-B)
//	ddprof all -workload CG                      # every built-in plug-in
//	ddprof -workload kmeans -remote :7077        # profile on a ddprofd daemon
//	ddprof -workload kmeans -cpuprofile cpu.out  # profile the profiler
//	ddprof -list                                 # show available workloads
//
// A target that spawns threads is profiled under -mode mt whatever was asked.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ddprof"
	"ddprof/internal/analysis"
	"ddprof/internal/dep"
	"ddprof/internal/server"
	"ddprof/internal/sig"
	"ddprof/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// backendHelp names sig.OpenStore's three forms.
const backendHelp = "store spec: signature (sized by -slots) | signature:slots=N (k/m/g suffixes) | perfect"

func run(args []string, stdout, stderr io.Writer) int {
	// The flag package stops at the first positional, so the report name
	// comes off the front and anything positional left after parsing is an
	// error, not a silently ignored tail.
	report := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		report, args = args[0], args[1:]
	}
	fs := flag.NewFlagSet("ddprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "quick", "workload name (see -list), or 'quick' for a demo loop")
		file    = fs.String("file", "", "profile a minilang source file instead of a bundled workload")
		mode    = fs.String("mode", "serial", "profiler mode: serial | parallel | mt (a target that spawns threads always runs under mt)")
		workers = fs.Int("workers", 8, "profiling worker threads (parallel modes)")
		slots   = fs.Int("slots", 1<<21, "signature slots: the one signature every mode profiles with")
		backend = fs.String("backend", "", backendHelp)
		scale   = fs.Float64("scale", 1, "workload problem-size multiplier")
		threads = fs.Int("threads", 4, "target threads of pthread variants (-mode mt, water-spatial) and of the communication report")
		list    = fs.Bool("list", false, "list available workloads and exit")
		summary = fs.Bool("summary", false, "print only the summary, not the dependence dump")
		out     = fs.String("o", "", "write the dependence dump (or the report) to a file instead of stdout")
		format  = fs.String("format", "text", "dump format: text (Figure 1/3) | binary")
		remote  = fs.String("remote", "", "profile on a ddprofd daemon: host:port or unix:/path.sock")
		frameKB = fs.Int("framebytes", 0, "with -remote: wire frame size in bytes (one trace-buffer flush = one frame; 0 = 64KiB default, capped by the daemon's 1MiB frame limit)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the profiler to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "ddprof:", err)
		return code
	}
	if fs.NArg() > 0 {
		return fail(2, fmt.Errorf("unexpected argument %q (the report name comes first: ddprof <report> [flags])", fs.Arg(0)))
	}
	plugins, err := pickReport(report, *threads)
	if err != nil {
		return fail(2, err)
	}
	if plugins != nil && *remote != "" {
		return fail(2, fmt.Errorf("report %q needs a local run: a daemon returns dependences, not the run a plug-in reads", report))
	}

	// Bad -mode, -format, -backend, -slots and -workers values fail here,
	// before any work is done and before a daemon is dialed.
	pmode, err := checkFlags(*mode, *format, *backend, *slots, *workers)
	if err != nil {
		return fail(2, err)
	}
	binary := *format == "binary"

	// A session's store is its handshake's spec, so an explicit -slots
	// travels as the spec that says the same: the total signature.
	remoteBackend := *backend
	if *remote != "" && slotsSet(fs) {
		if *backend != "" {
			return fail(2, errors.New("-slots and -backend both size the remote session's store: give one"))
		}
		if *slots > 0 {
			remoteBackend = fmt.Sprintf("signature:slots=%d", *slots)
		}
	}

	if *list {
		fmt.Fprintln(stdout, "available workloads:")
		for _, w := range workloads.Catalog() {
			par := ""
			switch {
			case w.Build == nil:
				par = " (pthread only)"
			case w.BuildParallel != nil:
				par = " (has pthread variant)"
			}
			fmt.Fprintf(stdout, "  %-14s %s%s\n", w.Name, w.Suite, par)
		}
		return 0
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fail(1, err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fail(1, err)
			}
		}()
	}

	var prog *ddprof.Program
	switch {
	case *file != "":
		src, rerr := os.ReadFile(*file)
		if rerr != nil {
			return fail(1, rerr)
		}
		prog, err = ddprof.ParseTarget(*file, string(src))
	default:
		prog, err = buildTarget(*name, *scale, *threads, *mode)
	}
	if err != nil {
		return fail(1, err)
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		w = f
	}

	switch {
	case *remote != "":
		err = runRemote(prog, w, stdout, *remote, server.ClientOptions{Workers: *workers, Backend: remoteBackend, FrameBytes: *frameKB}, *summary, binary)
	default:
		cfg := ddprof.Config{Mode: pmode, Workers: *workers, Slots: *slots, Backend: *backend}
		err = runLocal(prog, cfg, plugins, w, stdout, stderr, *summary, binary)
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// pickReport resolves the leading report name: none is the dependence dump
// (nil), "all" every built-in plug-in, anything else one plug-in by Name.
func pickReport(report string, threads int) ([]analysis.Analysis, error) {
	if report == "" {
		return nil, nil
	}
	builtins := analysis.Builtins(threads)
	if report == "all" {
		return builtins, nil
	}
	names := make([]string, len(builtins))
	for i, p := range builtins {
		if p.Name() == report {
			return builtins[i : i+1], nil
		}
		names[i] = p.Name()
	}
	return nil, fmt.Errorf("unknown report %q (%s | all)", report, strings.Join(names, " | "))
}

// runLocal profiles prog in process and writes either the plug-in reports or
// the dependence dump followed by the summary.
func runLocal(prog *ddprof.Program, cfg ddprof.Config, plugins []analysis.Analysis, w, stdout, stderr io.Writer, summary, binary bool) error {
	res, err := ddprof.Profile(prog, cfg)
	if err != nil {
		return err
	}
	if res.Mode != cfg.Mode {
		fmt.Fprintln(stderr, "ddprof: note: profiling a multi-threaded target; forcing -mode mt")
	}
	switch len(plugins) {
	case 0:
	case 1:
		rep, err := plugins[0].Run(res.Data())
		if err == nil {
			_, err = io.WriteString(w, rep)
		}
		return err
	default:
		rep, err := analysis.RunAll(res.Data(), plugins)
		if err == nil {
			_, err = fmt.Fprintf(w, "analysis of %s (%d accesses)\n\n%s", prog.Name, res.Accesses, rep)
		}
		return err
	}
	if err := dump(w, summary, binary, res.WriteDeps, res.SaveBinary); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n# %s: %d accesses, %d dependences (%d dynamic instances merged)\n",
		prog.Name, res.Accesses, res.Deps.Unique(), res.Deps.Instances())
	fmt.Fprintf(stdout, "# parallelizable loops: %v\n", res.ParallelizableLoops())
	if res.Mode == ddprof.ModeMT {
		fmt.Fprintf(stdout, "# dependences flagged as potential races: %d\n", res.Races)
	}
	return nil
}

// runRemote executes the target locally while streaming its trace to a
// ddprofd daemon, then renders the dependence set the daemon returned.
func runRemote(prog *ddprof.Program, w, stdout io.Writer, addr string, opt server.ClientOptions, summary, binary bool) error {
	conn, err := server.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rr, err := server.ProfileRemote(conn, prog, opt)
	if err != nil {
		return err
	}
	if err := dump(w, summary, binary, func(w io.Writer) error {
		return dep.Write(w, rr.Deps, prog.Tab, rr.LoopRecords, dep.WriterOptions{Threads: rr.MT, MarkRaces: rr.MT})
	}, func(w io.Writer) error {
		return dep.Encode(w, rr.Deps, prog.Tab, rr.LoopRecords)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n# %s: %d accesses streamed to %s, %d dependences (%d dynamic instances merged)\n",
		prog.Name, rr.Events, addr, rr.Deps.Unique(), rr.Deps.Instances())
	return nil
}

// slotsSet reports whether -slots was given on the command line.
func slotsSet(fs *flag.FlagSet) bool {
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == "slots" })
	return set
}

// checkFlags validates -mode, -format, -backend, -slots and -workers and
// resolves the mode. The store is opened the way the run will open it, and
// dropped: none commits slot memory before its first access.
func checkFlags(mode, format, backend string, slots, workers int) (ddprof.Mode, error) {
	if format != "text" && format != "binary" {
		return 0, fmt.Errorf("unknown format %q (text | binary)", format)
	}
	if slots < 0 || workers < 0 {
		return 0, fmt.Errorf("-slots %d, -workers %d: want >= 0 (0 selects the default)", slots, workers)
	}
	if _, err := sig.OpenStore(backend, slots); err != nil {
		if backend == "" {
			return 0, fmt.Errorf("-slots: %w", err)
		}
		return 0, fmt.Errorf("-backend: %w", err)
	}
	switch mode {
	case "serial":
		return ddprof.ModeSerial, nil
	case "parallel":
		return ddprof.ModeParallel, nil
	case "mt":
		return ddprof.ModeMT, nil
	}
	return 0, fmt.Errorf("unknown mode %q (serial | parallel | mt)", mode)
}

// dump writes the dependence dump, in the text or the binary format, unless
// -summary suppresses it.
func dump(w io.Writer, summary, binary bool, text, bin func(io.Writer) error) error {
	if summary {
		return nil
	}
	if binary {
		return bin(w)
	}
	return text(w)
}

// buildTarget resolves a workload name to a program: the pthread variant
// under -mode mt and for a workload that has no other, else the sequential
// one.
func buildTarget(name string, scale float64, threads int, mode string) (*ddprof.Program, error) {
	if name == "quick" {
		p := ddprof.NewProgram("quick")
		p.MainFunc(func(b *ddprof.Block) {
			b.Decl("sum", ddprof.Ci(0))
			b.For("i", ddprof.Ci(0), ddprof.Ci(100), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "demo"}, func(l *ddprof.Block) {
					l.Reduce("sum", ddprof.OpAdd, ddprof.V("i"))
				})
		})
		return p, nil
	}
	cfg := workloads.Config{Scale: scale, Threads: threads}
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (try -list)", name)
	}
	if mode != "mt" && w.Build != nil {
		return w.Build(cfg), nil
	}
	if w.BuildParallel == nil {
		return nil, fmt.Errorf("workload %q has no multi-threaded variant", name)
	}
	return w.BuildParallel(cfg), nil
}
