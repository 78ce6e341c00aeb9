package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/report"
)

// The plug-in layer sketched in the paper's conclusion (§VIII): profiled data
// is bundled once and "a dependence-based program analysis can be implemented
// as a plugin". The built-in plug-ins cover the paper's two §VII applications
// (parallelism discovery, communication patterns) plus hot-dependence, race,
// call-graph and section summaries; `ddprof <report>` runs them by Name.

// Data is one completed profiling run plus its target program: everything a
// plug-in may read.
type Data struct {
	Program *minilang.Program
	Result  *core.Result
	Info    *interp.RunInfo
}

// LoopTable lists every executed loop with its dependence verdict, in loop-ID
// order.
func (d *Data) LoopTable() []LoopReport {
	return DiscoverParallelism(d.Program.Meta, d.Result, d.Info.LoopIters)
}

// Analysis is a dependence-based program analysis plug-in.
type Analysis interface {
	// Name identifies the plug-in.
	Name() string
	// Run produces a human-readable report from the bundled data.
	Run(d *Data) (string, error)
}

// RunAll executes the plug-ins in order and concatenates their reports.
func RunAll(d *Data, plugins []Analysis) (string, error) {
	var b strings.Builder
	for _, p := range plugins {
		rep, err := p.Run(d)
		if err != nil {
			return "", fmt.Errorf("plugin %s: %w", p.Name(), err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", p.Name(), rep)
	}
	return b.String(), nil
}

// Builtins returns the built-in plug-ins.
func Builtins(targetThreads int) []Analysis {
	return []Analysis{
		Parallelism{},
		HotDeps{Top: 5},
		CommunicationPlugin{Threads: targetThreads},
		Races{},
		CallGraph{},
		SectionsPlugin{},
	}
}

// Parallelism is the §VII-A plug-in: the loop table with a verdict per loop
// (the DiscoPoP use case).
type Parallelism struct{}

// Name implements Analysis.
func (Parallelism) Name() string { return "parallelism" }

// Run implements Analysis.
func (Parallelism) Run(d *Data) (string, error) {
	loops := d.LoopTable()
	tab := &report.Table{
		Title:   fmt.Sprintf("Loop parallelism in %s (from profiled dependences)", d.Program.Name),
		Headers: []string{"loop", "OMP", "iterations", "carried RAW", "carried WAR/WAW", "verdict"},
	}
	for _, l := range loops {
		verdict := "sequential (carried RAW)"
		switch {
		case l.Parallelizable:
			verdict = "PARALLELIZABLE"
		case l.Reduction:
			verdict = "parallelizable with reduction"
		case l.DoacrossDistance >= 2:
			verdict = fmt.Sprintf("DOACROSS(%d): overlap up to %d iterations", l.DoacrossDistance, l.DoacrossDistance)
		}
		tab.AddRow(l.Loop.Name, l.Loop.OMP, l.Iterations, l.CarriedRAW,
			fmt.Sprintf("%d/%d", l.CarriedWAR, l.CarriedWAW), verdict)
	}
	omp, identified := CountIdentified(loops)
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("%d of %d OMP-annotated loops identified as parallelizable", identified, omp))
	return tab.String(), nil
}

// HotDeps reports the most frequent dependences.
type HotDeps struct{ Top int }

// Name implements Analysis.
func (h HotDeps) Name() string { return "hot-deps" }

// Run implements Analysis.
func (h HotDeps) Run(d *Data) (string, error) {
	type kc struct {
		k dep.Key
		c uint64
	}
	var all []kc
	d.Result.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		all = append(all, kc{k, st.Count})
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].k.Sink < all[j].k.Sink
	})
	n := h.Top
	if n <= 0 {
		n = 5
	}
	if n > len(all) {
		n = len(all)
	}
	var b strings.Builder
	for _, e := range all[:n] {
		fmt.Fprintf(&b, "%v %v <- %v |%s| x%d\n",
			e.k.Type, e.k.Sink, e.k.Src, d.Program.Tab.VarName(e.k.Var), e.c)
	}
	return b.String(), nil
}

// CommunicationPlugin is the §VII-B plug-in: the producer/consumer heatmap of
// Figure 9, the cross-thread RAW volume and the race count of the same run.
type CommunicationPlugin struct{ Threads int }

// Name implements Analysis.
func (CommunicationPlugin) Name() string { return "communication" }

// Run implements Analysis.
func (c CommunicationPlugin) Run(d *Data) (string, error) {
	t := max(c.Threads, 1)
	m := Communication(d.Result.Deps, t)
	return fmt.Sprintf("communication pattern of %s (%d target threads):\n\n%s\n"+
		"cross-thread RAW volume: %d instances\n"+
		"dependences flagged as potential data races: %d\n",
		d.Program.Name, t, m.Heatmap(), m.CrossThread(), CountRaces(d.Result.Deps)), nil
}

// CallGraph reports the dynamic call graph (§VIII's call tree collapsed to
// caller→callee invocation counts) recorded by the interpreter.
type CallGraph struct{}

// Name implements Analysis.
func (CallGraph) Name() string { return "callgraph" }

// Run implements Analysis.
func (CallGraph) Run(d *Data) (string, error) {
	type fc struct {
		fn string
		n  uint64
	}
	fns := make([]fc, 0, len(d.Info.Calls))
	for fn, n := range d.Info.Calls {
		fns = append(fns, fc{fn, n})
	}
	sort.Slice(fns, func(i, j int) bool {
		if fns[i].n != fns[j].n {
			return fns[i].n > fns[j].n
		}
		return fns[i].fn < fns[j].fn
	})
	var b strings.Builder
	for _, f := range fns {
		fmt.Fprintf(&b, "%-20s x%d\n", f.fn, f.n)
	}
	edges := make([]interp.CallEdge, 0, len(d.Info.CallEdges))
	for e := range d.Info.CallEdges {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Caller != edges[j].Caller {
			return edges[i].Caller < edges[j].Caller
		}
		return edges[i].Callee < edges[j].Callee
	})
	for _, e := range edges {
		fmt.Fprintf(&b, "%s -> %s x%d\n", e.Caller, e.Callee, d.Info.CallEdges[e])
	}
	fmt.Fprintf(&b, "max call depth: %d\n", d.Info.MaxCallDepth)
	return b.String(), nil
}

// SectionsPlugin reports the loop-to-loop (section-level) dependence
// summary of §VI-B.
type SectionsPlugin struct{}

// Name implements Analysis.
func (SectionsPlugin) Name() string { return "sections" }

// Run implements Analysis.
func (SectionsPlugin) Run(d *Data) (string, error) {
	sd := Sections(d.Program.Meta, d.Result.Deps)
	out := sd.String()
	if out == "" {
		out = "no cross-section dependences\n"
	}
	return out, nil
}

// Races is the §V-B plugin: dependences whose timestamps reversed.
type Races struct{}

// Name implements Analysis.
func (Races) Name() string { return "races" }

// Run implements Analysis.
func (Races) Run(d *Data) (string, error) {
	var b strings.Builder
	n := 0
	d.Result.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if st.Reversed {
			n++
			fmt.Fprintf(&b, "%v %v|%d <- %v|%d |%s| (order reversal observed)\n",
				k.Type, k.Sink, k.SinkThread, k.Src, k.SrcThread, d.Program.Tab.VarName(k.Var))
		}
		return true
	})
	fmt.Fprintf(&b, "%d dependences flagged as potential races\n", n)
	return b.String(), nil
}
