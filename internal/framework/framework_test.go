package framework

import (
	"errors"
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	ml "ddprof/internal/minilang"
)

// bundle profiles a small program and wraps it.
func bundle(t *testing.T) *Data {
	t.Helper()
	p := testProgram()
	prof, err := core.New(core.Config{
		Backend: "perfect",
		Meta:    p.Meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := interp.Run(p, prof, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return New(p, prof.Flush(), info)
}

// testProgram builds:
//
//	line 1: x = 1
//	line 2: y = x + 1
//	line 3: z = y * 2
//	line 4: s = 0
//	line 5: loop (reduction on s at line 6)
func testProgram() *ml.Program {
	p := ml.New("fw")
	p.MainFunc(func(b *ml.Block) {
		b.Decl("x", ml.Ci(1))
		b.Decl("y", ml.Add(ml.V("x"), ml.Ci(1)))
		b.Decl("z", ml.Mul(ml.V("y"), ml.Ci(2)))
		b.Decl("s", ml.Ci(0))
		b.For("i", ml.Ci(0), ml.Ci(10), ml.Ci(1), ml.LoopOpt{Name: "acc"}, func(l *ml.Block) {
			l.Reduce("s", ml.OpAdd, ml.V("z"))
		})
	})
	return p
}

func TestGraphEdges(t *testing.T) {
	d := bundle(t)
	g := d.Graph()
	l1, l2 := loc.Pack(1, 1), loc.Pack(1, 2)
	// x written at 1, read at 2: RAW edge 1 -> 2.
	found := false
	for _, e := range g.From(l1) {
		if e.Type == dep.RAW && e.To == l2 {
			found = true
			if e.Count == 0 {
				t.Error("edge has zero count")
			}
		}
	}
	if !found {
		t.Fatalf("missing RAW edge 1->2; edges: %+v", g.From(l1))
	}
	// Reverse index agrees.
	found = false
	for _, e := range g.To(l2) {
		if e.Type == dep.RAW && e.From == l1 {
			found = true
		}
	}
	if !found {
		t.Error("reverse index missing the edge")
	}
	if len(g.Lines()) == 0 {
		t.Error("no lines in graph")
	}
}

func TestGraphReachable(t *testing.T) {
	d := bundle(t)
	g := d.Graph()
	// Dataflow from line 1 (x) flows through y (2), z (3) into the loop
	// accumulation (6).
	reach := g.Reachable(loc.Pack(1, 1))
	for _, want := range []int{2, 3} {
		if !reach[loc.Pack(1, want)] {
			t.Errorf("line %d not reachable from line 1: %v", want, reach)
		}
	}
	// Self-cycles (the accumulator) must not loop forever — reaching here
	// is the assertion.
}

func TestLoopTable(t *testing.T) {
	d := bundle(t)
	rows := d.LoopTable()
	if len(rows) != 1 {
		t.Fatalf("loop table rows = %d", len(rows))
	}
	if rows[0].Loop.Name != "acc" || rows[0].Iterations != 10 {
		t.Errorf("row = %+v", rows[0])
	}
	if rows[0].Report.Parallelizable || !rows[0].Report.Reduction {
		t.Errorf("accumulator verdict wrong: %+v", rows[0].Report)
	}
}

// TestRegistry: the built-in plugin list runs end to end.
func TestRegistry(t *testing.T) {
	out, err := RunAll(bundle(t), Builtins(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== parallelism ==", "== hot-deps ==", "== communication ==", "== races ==", "== callgraph ==", "== sections ==", "acc", "reduction", "max call depth"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// failing is a plugin that always errors.
type failing struct{}

func (failing) Name() string              { return "failing" }
func (failing) Run(*Data) (string, error) { return "", errors.New("boom") }

func TestRunAllPropagatesErrors(t *testing.T) {
	if _, err := RunAll(bundle(t), []Analysis{failing{}}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestHotDepsOrdering(t *testing.T) {
	d := bundle(t)
	out, err := HotDeps{Top: 3}.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 hot deps, got %d:\n%s", len(lines), out)
	}
	// The hottest dependence is the loop-control self dependence on i
	// (condition + increment reads every iteration).
	if !strings.Contains(lines[0], "|i|") {
		t.Errorf("hottest dep should be the loop variable: %s", lines[0])
	}
}

func TestCallGraphPlugin(t *testing.T) {
	d := bundle(t)
	out, err := CallGraph{}.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "main") || !strings.Contains(out, "max call depth: 1") {
		t.Errorf("callgraph output wrong:\n%s", out)
	}
}
