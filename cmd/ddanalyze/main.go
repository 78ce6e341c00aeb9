// Command ddanalyze runs the integrated program-analysis framework (paper
// §VIII) over one profiled workload: every built-in plugin — parallelism
// discovery, hot dependences, communication matrix, race summary, dynamic
// call graph — reports against a single profiling run.
//
// Usage:
//
//	ddanalyze -workload CG
//	ddanalyze -workload kmeans -mt -threads 4
package main

import (
	"flag"
	"fmt"
	"os"

	"ddprof/internal/core"
	"ddprof/internal/framework"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

func main() {
	var (
		name    = flag.String("workload", "CG", "workload name")
		scale   = flag.Float64("scale", 1, "problem-size multiplier")
		mt      = flag.Bool("mt", false, "profile the pthread variant with the MT profiler")
		threads = flag.Int("threads", 4, "target threads for -mt")
		workers = flag.Int("workers", 8, "profiling worker threads")
		useTW   = flag.Bool("interp", false, "execute the target with the reference tree-walking interpreter instead of the bytecode VM")
	)
	flag.Parse()

	cfg := workloads.Config{Scale: *scale, Threads: *threads}
	w, ok := workloads.ByName(*name)
	var prog *minilang.Program
	switch {
	case *name == "water-spatial":
		prog = workloads.WaterSpatial(cfg)
		*mt = true
	case !ok:
		fmt.Fprintf(os.Stderr, "ddanalyze: unknown workload %q\n", *name)
		os.Exit(2)
	case *mt:
		if w.BuildParallel == nil {
			fmt.Fprintf(os.Stderr, "ddanalyze: %q has no pthread variant\n", *name)
			os.Exit(2)
		}
		prog = w.BuildParallel(cfg)
	default:
		prog = w.Build(cfg)
	}

	ccfg := core.Config{Mode: core.ModeParallel, Workers: *workers, SlotsPerWorker: (1 << 21) / *workers, Meta: prog.Meta}
	iopt := interp.Options{}
	if *mt {
		ccfg.Mode = core.ModeMT
		iopt.Timestamps = true
	}
	prof, err := core.New(ccfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddanalyze:", err)
		os.Exit(2)
	}
	exec := interp.Executor(vm.New())
	if *useTW {
		exec = interp.TreeWalker{}
	}
	info, err := exec.Run(prog, prof, iopt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddanalyze:", err)
		os.Exit(1)
	}
	data := framework.New(prog, prof.Flush(), info)

	out, err := framework.RunAll(data, framework.Builtins(*threads))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ddanalyze:", err)
		os.Exit(1)
	}
	fmt.Printf("analysis of %s (%d accesses)\n\n%s", prog.Name, info.Accesses, out)
}
