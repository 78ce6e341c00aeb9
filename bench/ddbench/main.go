// Command ddbench is the repository's benchmark of record: five fixed-work
// workloads profiled the way users meet the profiler (a whole target program
// in, a DDP1 profile out), and a ledger that prices each module from outside
// by timing calls into its public functions. bench/README.md explains the
// workloads, the metrics and how they interact.
//
//	ddbench --workload W --seed N --seconds S --trace 0|1   the driver's form of run
//	ddbench run       -workload W [-seed N] [-seconds S]    one end-to-end run, tracing off
//	ddbench trace     -workload W [-seed N] [-seconds S]    one traced run: the per-layer ledger
//	ddbench all       [-seed N] [-seconds S]                run + trace of every workload, each in a fresh process
//	ddbench calibrate [-sets K] [-runs N] [-seconds S]      noise of the current tree against BENCHMARK.json's bounds
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: ddbench [run|trace|all|calibrate] [flags]; see bench/README.md")
		os.Exit(2)
	}
	cmd := "run"
	if !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run", "trace":
		err = runCmd(cmd, args)
	case "all":
		err = allCmd(args)
	case "calibrate":
		err = calibrateCmd(args)
	default:
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddbench:", err)
		os.Exit(1)
	}
}

// runFlags are the flags run, trace and the driver's form share.
type runFlags struct {
	workload string
	trace    int
	opt      options
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&f.opt.seed, "seed", defaultSeed, "input seed: permutes program order and jitters each Scale")
	fs.Float64Var(&f.opt.seconds, "seconds", 12, "how long the timed repetitions go on")
	fs.IntVar(&f.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&f.opt.smoke, "smoke", false, "tiny programs (harness tests)")
	fs.StringVar(&f.opt.outDir, "out", "bench/out", "directory for the unix socket and Chrome traces")
}

func workloadNames() []string {
	out := make([]string, len(allWorkloads))
	for i, w := range allWorkloads {
		out[i] = w.name
	}
	return out
}

// runCmd is one run of one workload in this process. Failed operations are
// counted in the result line, as the driver's contract asks, not turned into
// an exit code; all and calibrate exit non-zero on them.
func runCmd(cmd string, args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("ddbench "+cmd, flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	w, err := workloadByName(f.workload)
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(maxProcs)

	var rep *report
	list := endToEnd
	if cmd == "trace" || f.trace == 1 {
		list = perLayer
		rep, err = traceRun(w, f.opt)
	} else {
		rep, err = measure(w, f.opt)
	}
	if err != nil {
		return err
	}
	return rep.print(os.Stdout, names(list))
}
