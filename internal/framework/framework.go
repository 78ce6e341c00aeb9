// Package framework is the integrated program-analysis layer sketched in
// the paper's conclusion (§VIII): it "reorganizes profiled data into
// multiple representations, including dynamic execution tree, call tree,
// dependence graph, loop table, etc., and a dependence-based program
// analysis can be implemented as a plugin."
//
// Data bundles one profiling run; representation builders derive a
// dependence graph and a loop table from it; Analysis plugins consume the
// bundle and produce reports. Built-in plugins cover the paper's two §VII
// applications (parallelism discovery, communication patterns) plus hot
// dependence and race summaries.
package framework

import (
	"fmt"
	"sort"
	"strings"

	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
)

// Data is one completed profiling run plus its target program.
type Data struct {
	Program *minilang.Program
	Result  *core.Result
	Info    *interp.RunInfo
}

// New bundles a run.
func New(p *minilang.Program, res *core.Result, info *interp.RunInfo) *Data {
	return &Data{Program: p, Result: res, Info: info}
}

// --- dependence graph ----------------------------------------------------

// Edge is one aggregated dependence between two source lines.
type Edge struct {
	Type  dep.Type
	From  loc.SourceLoc // source (earlier access)
	To    loc.SourceLoc // sink (later access)
	Var   loc.VarID
	Count uint64
}

// DepGraph is the line-level dependence graph.
type DepGraph struct {
	edges map[loc.SourceLoc][]Edge // keyed by From
	redge map[loc.SourceLoc][]Edge // keyed by To
}

// Graph builds the dependence graph (INIT records carry no source and are
// excluded).
func (d *Data) Graph() *DepGraph {
	g := &DepGraph{
		edges: make(map[loc.SourceLoc][]Edge),
		redge: make(map[loc.SourceLoc][]Edge),
	}
	d.Result.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if k.Type == dep.INIT {
			return true
		}
		e := Edge{Type: k.Type, From: k.Src, To: k.Sink, Var: k.Var, Count: st.Count}
		g.edges[e.From] = append(g.edges[e.From], e)
		g.redge[e.To] = append(g.redge[e.To], e)
		return true
	})
	for _, m := range []map[loc.SourceLoc][]Edge{g.edges, g.redge} {
		for _, es := range m {
			sort.Slice(es, func(i, j int) bool {
				if es[i].To != es[j].To {
					return es[i].To < es[j].To
				}
				if es[i].From != es[j].From {
					return es[i].From < es[j].From
				}
				return es[i].Type < es[j].Type
			})
		}
	}
	return g
}

// From returns the edges whose source is the given line.
func (g *DepGraph) From(l loc.SourceLoc) []Edge { return g.edges[l] }

// To returns the edges whose sink is the given line.
func (g *DepGraph) To(l loc.SourceLoc) []Edge { return g.redge[l] }

// Lines returns every line participating in the graph, sorted.
func (g *DepGraph) Lines() []loc.SourceLoc {
	seen := map[loc.SourceLoc]bool{}
	for l := range g.edges {
		seen[l] = true
	}
	for l := range g.redge {
		seen[l] = true
	}
	out := make([]loc.SourceLoc, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Reachable returns the set of lines reachable from l along RAW edges —
// the dataflow slice of a statement.
func (g *DepGraph) Reachable(l loc.SourceLoc) map[loc.SourceLoc]bool {
	seen := map[loc.SourceLoc]bool{}
	var walk func(loc.SourceLoc)
	walk = func(cur loc.SourceLoc) {
		for _, e := range g.edges[cur] {
			if e.Type != dep.RAW || seen[e.To] {
				continue
			}
			seen[e.To] = true
			if e.To != cur {
				walk(e.To)
			}
		}
	}
	walk(l)
	return seen
}

// --- loop table ----------------------------------------------------------

// LoopRow is one entry of the loop table.
type LoopRow struct {
	Loop       prog.Loop
	Iterations uint64
	Report     analysis.LoopReport
}

// LoopTable lists every executed loop with its dependence verdicts, sorted
// by begin line.
func (d *Data) LoopTable() []LoopRow {
	reports := analysis.DiscoverParallelism(d.Program.Meta, d.Result, d.Info.LoopIters)
	rows := make([]LoopRow, 0, len(reports))
	for _, r := range reports {
		rows = append(rows, LoopRow{Loop: r.Loop, Iterations: r.Iterations, Report: r})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Loop.Begin < rows[j].Loop.Begin })
	return rows
}

// --- plugins -------------------------------------------------------------

// Analysis is a dependence-based program analysis plugin.
type Analysis interface {
	// Name identifies the plugin.
	Name() string
	// Run produces a human-readable report from the bundled data.
	Run(d *Data) (string, error)
}

// RunAll executes the plugins in order and concatenates their reports.
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

// Builtins returns the built-in plugins.
func Builtins(targetThreads int) []Analysis {
	return []Analysis{
		Parallelism{},
		HotDeps{Top: 5},
		Communication{Threads: targetThreads},
		Races{},
		CallGraph{},
		SectionsPlugin{},
	}
}

// Parallelism is the §VII-A plugin: loop parallelism verdicts.
type Parallelism struct{}

// Name implements Analysis.
func (Parallelism) Name() string { return "parallelism" }

// Run implements Analysis.
func (Parallelism) Run(d *Data) (string, error) {
	var b strings.Builder
	for _, row := range d.LoopTable() {
		verdict := "sequential"
		switch {
		case row.Report.Parallelizable:
			verdict = "parallelizable"
		case row.Report.Reduction:
			verdict = "reduction"
		}
		fmt.Fprintf(&b, "%-24s %8d iters  %s\n", row.Loop.Name, row.Iterations, verdict)
	}
	return b.String(), nil
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

// Communication is the §VII-B plugin.
type Communication struct{ Threads int }

// Name implements Analysis.
func (Communication) Name() string { return "communication" }

// Run implements Analysis.
func (c Communication) Run(d *Data) (string, error) {
	t := c.Threads
	if t <= 0 {
		t = 1
	}
	m := analysis.Communication(d.Result.Deps, t)
	return m.Heatmap(), nil
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
	sd := analysis.Sections(d.Program.Meta, d.Result.Deps)
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
