package analysis

import (
	"errors"
	"strings"
	"testing"

	ml "ddprof/internal/minilang"
)

// bundle profiles a small program and wraps it.
func bundle(t *testing.T) *Data {
	t.Helper()
	p := testProgram()
	info, res := profileProgram(t, p)
	return &Data{Program: p, Result: res, Info: info}
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

func TestLoopTable(t *testing.T) {
	d := bundle(t)
	rows := d.LoopTable()
	if len(rows) != 1 {
		t.Fatalf("loop table rows = %d", len(rows))
	}
	if rows[0].Loop.Name != "acc" || rows[0].Iterations != 10 {
		t.Errorf("row = %+v", rows[0])
	}
	if rows[0].Parallelizable || !rows[0].Reduction {
		t.Errorf("accumulator verdict wrong: %+v", rows[0])
	}
}

// TestRegistry: the built-in plugin list runs end to end.
func TestRegistry(t *testing.T) {
	out, err := RunAll(bundle(t), Builtins(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== parallelism ==", "== hot-deps ==", "== communication ==", "== races ==", "== callgraph ==", "== sections ==", "acc", "parallelizable with reduction", "cross-thread RAW volume: 0", "max call depth"} {
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
