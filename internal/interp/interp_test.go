package interp

import (
	"strings"
	"sync"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	. "ddprof/internal/minilang"
)

// runNative executes without a hook and returns the final scalars.
func runNative(t *testing.T, p *Program) *RunInfo {
	t.Helper()
	info, err := Run(p, nil, Options{})
	if err != nil {
		t.Fatalf("run %s: %v", p.Name, err)
	}
	return info
}

// runProfiled executes under a serial perfect-signature profiler.
func runProfiled(t *testing.T, p *Program) (*RunInfo, *core.Result) {
	t.Helper()
	prof, err := core.New(core.Config{
		Backend: "perfect",
		Meta:    p.Meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Run(p, prof, Options{})
	if err != nil {
		t.Fatalf("run %s: %v", p.Name, err)
	}
	return info, prof.Flush()
}

func TestArithmeticAndControlFlow(t *testing.T) {
	p := New("arith")
	p.MainFunc(func(b *Block) {
		b.Decl("x", Ci(10))
		b.Decl("y", Add(Mul(V("x"), Ci(3)), Ci(2)))   // 32
		b.Decl("z", IDiv(V("y"), Ci(5)))              // 6
		b.Decl("m", Mod(V("y"), Ci(5)))               // 2
		b.Decl("bits", Xor(Shl(Ci(1), Ci(4)), Ci(3))) // 19
		b.Decl("cmp", And(Lt(V("x"), V("y")), Ge(V("z"), Ci(6))))
		b.If(V("cmp"), func(tb *Block) {
			tb.Assign("x", Ci(111))
		}, func(eb *Block) {
			eb.Assign("x", Ci(222))
		})
		b.Decl("s", CallE("sqrt", Ci(144)))
	})
	info := runNative(t, p)
	want := map[string]float64{"y": 32, "z": 6, "m": 2, "bits": 19, "cmp": 1, "x": 111, "s": 12}
	for k, v := range want {
		if info.Vars[k] != v {
			t.Errorf("%s = %v, want %v", k, info.Vars[k], v)
		}
	}
}

func TestForLoopComputesAndCounts(t *testing.T) {
	p := New("sumloop")
	p.MainFunc(func(b *Block) {
		b.Decl("sum", Ci(0))
		b.For("i", Ci(0), Ci(100), Ci(1), LoopOpt{Name: "sum"}, func(l *Block) {
			l.Reduce("sum", OpAdd, V("i"))
		})
	})
	info := runNative(t, p)
	if info.Vars["sum"] != 4950 {
		t.Errorf("sum = %v, want 4950", info.Vars["sum"])
	}
	if len(info.LoopRecords) != 1 || info.LoopRecords[0].Iterations != 100 {
		t.Errorf("loop records = %+v, want one loop with 100 iterations", info.LoopRecords)
	}
	if info.Accesses == 0 {
		t.Error("no accesses counted")
	}
}

func TestArraysAndFunctions(t *testing.T) {
	p := New("arrfunc")
	p.Func("fill", []string{"a", "n", "mult"}, func(b *Block) {
		b.For("i", Ci(0), V("n"), Ci(1), LoopOpt{Name: "fill"}, func(l *Block) {
			l.Set("a", V("i"), Mul(V("i"), V("mult")))
		})
	})
	p.Func("sum", []string{"a", "n"}, func(b *Block) {
		b.Decl("acc", Ci(0))
		b.For("i", Ci(0), V("n"), Ci(1), LoopOpt{Name: "sum"}, func(l *Block) {
			l.Reduce("acc", OpAdd, Idx("a", V("i")))
		})
		b.Ret(V("acc"))
	})
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(50))
		b.DeclArr("data", V("n"))
		b.Call("fill", V("data"), V("n"), Ci(3))
		b.Decl("total", CallE("sum", V("data"), V("n")))
		b.Decl("ln", LenOf("data"))
	})
	info := runNative(t, p)
	if info.Vars["total"] != 3*49*50/2 {
		t.Errorf("total = %v, want %v", info.Vars["total"], 3*49*50/2)
	}
	if info.Vars["ln"] != 50 {
		t.Errorf("len = %v, want 50", info.Vars["ln"])
	}
}

func TestWhileLoop(t *testing.T) {
	p := New("collatz")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(27))
		b.Decl("steps", Ci(0))
		b.While(Gt(V("n"), Ci(1)), LoopOpt{Name: "collatz"}, func(l *Block) {
			l.If(Eq(Mod(V("n"), Ci(2)), Ci(0)), func(tb *Block) {
				tb.Assign("n", IDiv(V("n"), Ci(2)))
			}, func(eb *Block) {
				eb.Assign("n", Add(Mul(V("n"), Ci(3)), Ci(1)))
			})
			l.Reduce("steps", OpAdd, Ci(1))
		})
	})
	info := runNative(t, p)
	if info.Vars["steps"] != 111 {
		t.Errorf("collatz(27) steps = %v, want 111", info.Vars["steps"])
	}
}

func TestRecursion(t *testing.T) {
	p := New("fib")
	p.Func("fib", []string{"n"}, func(b *Block) {
		b.If(Lt(V("n"), Ci(2)), func(tb *Block) {
			tb.Ret(V("n"))
		}, nil)
		b.Ret(Add(CallE("fib", Sub(V("n"), Ci(1))), CallE("fib", Sub(V("n"), Ci(2)))))
	})
	p.MainFunc(func(b *Block) {
		b.Decl("r", CallE("fib", Ci(15)))
	})
	if got := runNative(t, p).Vars["r"]; got != 610 {
		t.Errorf("fib(15) = %v, want 610", got)
	}
}

// TestProfiledLoopDependences checks the end-to-end pipeline on a loop
// shaped like the paper's Figure 1: the loop variable must show RAW/WAR
// self-dependences at the loop line, and an accumulator a carried RAW.
func TestProfiledLoopDependences(t *testing.T) {
	p := New("fig1")
	var loopLine int
	p.MainFunc(func(b *Block) {
		b.Decl("acc", Ci(0)) // line 1
		// The for statement is line 2.
		loopLine = 2
		b.For("i", Ci(0), Ci(10), Ci(1), LoopOpt{Name: "L"}, func(l *Block) {
			l.Assign("acc", Add(V("acc"), V("i"))) // line 3
		})
	})
	_, res := runProfiled(t, p)

	fl := loc.Pack(1, loopLine)
	raw := dep.Key{Type: dep.RAW, Sink: fl, Src: fl, Var: p.Tab.Var("i")}
	if st, ok := res.Deps.Lookup(raw); !ok {
		t.Errorf("missing loop-variable RAW self dep at %v", fl)
	} else if st.Carried {
		t.Error("induction-variable RAW must not count as loop-carried")
	}
	war := dep.Key{Type: dep.WAR, Sink: fl, Src: fl, Var: p.Tab.Var("i")}
	if _, ok := res.Deps.Lookup(war); !ok {
		t.Error("missing loop-variable WAR self dep")
	}
	accLine := loc.Pack(1, 3)
	accRAW := dep.Key{Type: dep.RAW, Sink: accLine, Src: accLine, Var: p.Tab.Var("acc")}
	st, ok := res.Deps.Lookup(accRAW)
	if !ok {
		t.Fatal("missing accumulator RAW")
	}
	if !st.Carried {
		t.Error("accumulator RAW must be carried")
	}
}

// TestProfiledOutputFormat renders a tiny profiled program and eyeballs the
// Figure 1 shape: BGN/END with the iteration count and NOM lines between.
func TestProfiledOutputFormat(t *testing.T) {
	p := New("fmt")
	p.MainFunc(func(b *Block) {
		b.Decl("x", Ci(1))
		b.For("i", Ci(0), Ci(7), Ci(1), LoopOpt{Name: "L"}, func(l *Block) {
			l.Assign("x", Add(V("x"), Ci(1)))
		})
	})
	prof, err := core.New(core.Config{Backend: "perfect", Meta: p.Meta})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Run(p, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := dep.Write(&sb, prof.Flush().Deps, p.Tab, info.LoopRecords, dep.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"BGN loop", "END loop 7", "NOM", "{RAW", "|i}", "{INIT *}"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFreeEmitsRemoveAndRecycles(t *testing.T) {
	p := New("lifetime")
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(8))
		b.Set("a", Ci(0), Ci(1)) // line 2: INIT write
		b.Free("a")              // line 3
		b.DeclArr("b", Ci(8))    // recycles a's storage
		b.Set("b", Ci(0), Ci(2)) // line 5: must be INIT again, not WAW
	})
	_, res := runProfiled(t, p)
	waw := dep.Key{Type: dep.WAW, Sink: loc.Pack(1, 5), Src: loc.Pack(1, 2), Var: p.Tab.Var("b")}
	if _, ok := res.Deps.Lookup(waw); ok {
		t.Error("false WAW across free/realloc — lifetime analysis failed")
	}
	inits := res.Deps.FilterType(dep.INIT)
	if len(inits) != 2 {
		t.Errorf("INIT deps = %d, want 2 (one per allocation)", len(inits))
	}
}

func TestSpawnThreadsComputeAndTagIDs(t *testing.T) {
	p := New("spawn")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(64))
		b.DeclArr("out", V("n"))
		b.Spawn(4, func(s *Block) {
			s.Decl("t", Tid())
			s.For("i", Mul(V("t"), Ci(16)), Mul(Add(V("t"), Ci(1)), Ci(16)), Ci(1), LoopOpt{Name: "work"}, func(l *Block) {
				l.Set("out", V("i"), Mul(V("i"), Ci(2)))
			})
		})
		b.Decl("check", Idx("out", Ci(63)))
	})
	mt, err := core.New(core.Config{Mode: core.ModeMT, Workers: 2, Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := Run(p, mt, Options{Timestamps: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Vars["check"] != 126 {
		t.Errorf("check = %v, want 126", info.Vars["check"])
	}
	res := mt.Flush()
	// The main thread (id 0) reads out[63], written by spawned thread 3:
	// a cross-thread RAW must carry those thread IDs.
	found := false
	res.Deps.Range(func(k dep.Key, _ dep.Stats) bool {
		if k.Type == dep.RAW && k.SinkThread == 0 && k.SrcThread == 3 && k.Var == p.Tab.Var("out") {
			found = true
			return false
		}
		return true
	})
	if !found {
		t.Error("cross-thread RAW (thread 3 -> main) not recorded")
	}
}

func TestLockedSharedCounter(t *testing.T) {
	p := New("locked")
	p.MainFunc(func(b *Block) {
		b.Decl("counter", Ci(0))
		b.Spawn(4, func(s *Block) {
			s.For("i", Ci(0), Ci(200), Ci(1), LoopOpt{Name: "inc"}, func(l *Block) {
				l.Lock("m", func(cr *Block) {
					cr.Reduce("counter", OpAdd, Ci(1))
				})
			})
		})
	})
	// Run natively several times: with the mutex the count is always exact.
	for i := 0; i < 3; i++ {
		if got := runNative(t, p).Vars["counter"]; got != 800 {
			t.Fatalf("locked counter = %v, want 800", got)
		}
	}
}

func TestBarrier(t *testing.T) {
	p := New("barrier")
	p.MainFunc(func(b *Block) {
		b.Decl("n", Ci(4))
		b.DeclArr("phase1", V("n"))
		b.DeclArr("phase2", V("n"))
		b.Spawn(4, func(s *Block) {
			s.Set("phase1", Tid(), Add(Tid(), Ci(1)))
			s.Barrier()
			// After the barrier every phase1 slot is visible.
			s.Decl("acc", Ci(0))
			s.For("i", Ci(0), V("n"), Ci(1), LoopOpt{Name: "rd"}, func(l *Block) {
				l.Reduce("acc", OpAdd, Idx("phase1", V("i")))
			})
			s.Set("phase2", Tid(), V("acc"))
		})
		b.Decl("check", Idx("phase2", Ci(0)))
	})
	for i := 0; i < 3; i++ {
		if got := runNative(t, p).Vars["check"]; got != 10 {
			t.Fatalf("barrier sum = %v, want 10", got)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(*Block)
		want  string
	}{
		{"oob", func(b *Block) {
			b.DeclArr("a", Ci(4))
			b.Set("a", Ci(9), Ci(1))
		}, "out of range"},
		{"undef", func(b *Block) {
			b.Assign("ghost", Ci(1))
		}, "undefined"},
		{"divzero", func(b *Block) {
			b.Decl("x", Div(Ci(1), Ci(0)))
		}, "division by zero"},
		{"badfree", func(b *Block) {
			b.Free("nothing")
		}, "free of undefined"},
		{"arrayScalarConfusion", func(b *Block) {
			b.DeclArr("a", Ci(4))
			b.Decl("x", V("a"))
		}, "is an array"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := New(c.name)
			p.MainFunc(c.build)
			_, err := Run(p, nil, Options{})
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %v, want containing %q", err, c.want)
			}
		})
	}
}

func TestThreadErrorPropagates(t *testing.T) {
	p := New("threaderr")
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(4))
		b.Spawn(2, func(s *Block) {
			s.Set("a", Add(Tid(), Ci(3)), Ci(1)) // tid 1 writes a[4]: out of range
		})
	})
	if _, err := Run(p, nil, Options{}); err == nil {
		t.Error("thread runtime error not propagated")
	}
}

func TestNoMainError(t *testing.T) {
	p := New("empty")
	if _, err := Run(p, nil, Options{}); err == nil {
		t.Error("missing main must be an error")
	}
}

// countingHook counts hook invocations from any thread.
type countingHook struct {
	mu sync.Mutex
	n  int
}

func (h *countingHook) Access(event.Access) {
	h.mu.Lock()
	h.n++
	h.mu.Unlock()
}

func TestNativeAndHookedSameComputation(t *testing.T) {
	build := func() *Program {
		p := New("same")
		p.MainFunc(func(b *Block) {
			b.Decl("acc", Ci(0))
			b.DeclArr("a", Ci(32))
			b.For("i", Ci(0), Ci(32), Ci(1), LoopOpt{}, func(l *Block) {
				l.Set("a", V("i"), Mul(V("i"), V("i")))
				l.Reduce("acc", OpAdd, Idx("a", V("i")))
			})
		})
		return p
	}
	nat := runNative(t, build())
	h := &countingHook{}
	hooked, err := Run(build(), h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if nat.Vars["acc"] != hooked.Vars["acc"] {
		t.Errorf("instrumentation changed the computation: %v vs %v", nat.Vars["acc"], hooked.Vars["acc"])
	}
	if uint64(h.n) != hooked.Accesses {
		t.Errorf("hook calls %d != counted accesses %d", h.n, hooked.Accesses)
	}
	if nat.Accesses != hooked.Accesses {
		t.Errorf("native run counted %d accesses, hooked %d", nat.Accesses, hooked.Accesses)
	}
}

func TestCallGraphRecording(t *testing.T) {
	p := New("callgraph")
	p.Func("leaf", []string{"x"}, func(b *Block) {
		b.Ret(Mul(V("x"), Ci(2)))
	})
	p.Func("mid", []string{"x"}, func(b *Block) {
		b.Ret(Add(CallE("leaf", V("x")), CallE("leaf", Ci(1))))
	})
	p.MainFunc(func(b *Block) {
		b.Decl("r", Ci(0))
		b.For("i", Ci(0), Ci(5), Ci(1), LoopOpt{}, func(l *Block) {
			l.Reduce("r", OpAdd, CallE("mid", V("i")))
		})
	})
	info := runNative(t, p)
	if info.Calls["main"] != 1 {
		t.Errorf("main invocations = %d", info.Calls["main"])
	}
	if info.Calls["mid"] != 5 {
		t.Errorf("mid invocations = %d, want 5", info.Calls["mid"])
	}
	if info.Calls["leaf"] != 10 {
		t.Errorf("leaf invocations = %d, want 10", info.Calls["leaf"])
	}
	if got := info.CallEdges[CallEdge{Caller: "main", Callee: "mid"}]; got != 5 {
		t.Errorf("main->mid = %d, want 5", got)
	}
	if got := info.CallEdges[CallEdge{Caller: "mid", Callee: "leaf"}]; got != 10 {
		t.Errorf("mid->leaf = %d, want 10", got)
	}
	if _, bad := info.CallEdges[CallEdge{Caller: "main", Callee: "leaf"}]; bad {
		t.Error("spurious main->leaf edge")
	}
	// main(1) + mid(2) + leaf(3)
	if info.MaxCallDepth != 3 {
		t.Errorf("max depth = %d, want 3", info.MaxCallDepth)
	}
}

func TestCallGraphRecursionDepth(t *testing.T) {
	p := New("recdepth")
	p.Func("down", []string{"n"}, func(b *Block) {
		b.If(Le(V("n"), Ci(0)), func(tb *Block) {
			tb.Ret(Ci(0))
		}, nil)
		b.Ret(CallE("down", Sub(V("n"), Ci(1))))
	})
	p.MainFunc(func(b *Block) {
		b.Decl("r", CallE("down", Ci(7)))
	})
	info := runNative(t, p)
	if info.Calls["down"] != 8 {
		t.Errorf("down invocations = %d, want 8", info.Calls["down"])
	}
	if got := info.CallEdges[CallEdge{Caller: "down", Callee: "down"}]; got != 7 {
		t.Errorf("self edge = %d, want 7", got)
	}
	// main(1) + down nest of 8
	if info.MaxCallDepth != 9 {
		t.Errorf("max depth = %d, want 9", info.MaxCallDepth)
	}
}

// TestParsedProgramExecution runs a program that came through the text
// front-end instead of the builder DSL.
func TestParsedProgramExecution(t *testing.T) {
	src := `
func total(a, n) {
    var acc = 0
    for i = 0; i < n; i += 1 "total" {
        acc += a[i]
    }
    return acc
}
func main() {
    var n = 20
    arr data[n]
    for i = 0; i < n; i += 1 omp "fill" {
        data[i] = i * 3
    }
    var sum = total(data, n)
    var collatz = 27
    var steps = 0
    while collatz > 1 "collatz" {
        if collatz % 2 == 0 {
            collatz = collatz / 2
        } else {
            collatz = 3 * collatz + 1
        }
        steps += 1
    }
    free data
}
`
	p, err := ParseProgram("exec.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	info := runNative(t, p)
	if got := info.Vars["sum"]; got != 3*19*20/2 {
		t.Errorf("sum = %v, want %v", got, 3*19*20/2)
	}
	if got := info.Vars["steps"]; got != 111 {
		t.Errorf("collatz steps = %v, want 111", got)
	}
	// Loop metadata flows through: the fill loop is OMP and parallelizable.
	prof, err := core.New(core.Config{Backend: "perfect", Meta: p.Meta})
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := ParseProgram("exec.ml", src)
	info2, err := Run(p2, prof, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = info2
	res := prof.Flush()
	for _, l := range p2.Meta.Loops() {
		ld := res.Loops[l.ID]
		switch l.Name {
		case "fill":
			if ld != nil && ld.CarriedRAW > 0 {
				t.Errorf("fill loop shows carried RAW: %+v", ld)
			}
		case "total", "collatz":
			if ld == nil || ld.CarriedRAW == 0 {
				t.Errorf("%s loop should show carried RAW", l.Name)
			}
		}
	}
}

// TestParsedSpawnExecution runs a parsed multi-threaded program.
func TestParsedSpawnExecution(t *testing.T) {
	src := `
func main() {
    var counter = 0
    spawn 4 {
        for i = 0; i < 100; i += 1 "inc" {
            lock m {
                counter += 1
            }
        }
        barrier
    }
}
`
	p, err := ParseProgram("mt.ml", src)
	if err != nil {
		t.Fatal(err)
	}
	info := runNative(t, p)
	if info.Vars["counter"] != 400 {
		t.Errorf("counter = %v, want 400", info.Vars["counter"])
	}
}

// TestFreeListsArePerThread: a freed run goes back to the thread that freed
// it, most recent first, by exact size; another thread draws fresh words until
// it adopts the list at a join.
func TestFreeListsArePerThread(t *testing.T) {
	ar := NewArena()
	defer ar.Recycle()
	a, b := FreeList{}, FreeList{}
	x, y := ar.Alloc(a, 4), ar.Alloc(a, 4)
	a.Release(x, 4)
	a.Release(y, 4)
	if got := ar.Alloc(b, 4); got == x || got == y {
		t.Fatalf("thread b was handed word %d, freed by thread a", got)
	}
	if got := ar.Alloc(a, 2); got == x || got == y {
		t.Fatalf("a 2-word allocation reused the 4-word run at %d", got)
	}
	if got := ar.Alloc(a, 4); got != y {
		t.Fatalf("thread a reused %d, want its last freed run %d", got, y)
	}
	b.Adopt(a, nil)
	if got := ar.Alloc(b, 4); got != x {
		t.Fatalf("after the join b allocated %d, want the adopted run %d", got, x)
	}
}

// TestStampLimitEndsTheRun: the Batcher's refusal of a stamp past
// event.MaxTS ends a run as a runtime error naming the limit, as the
// executors' own errors do; any other panic is not one.
func TestStampLimitEndsTheRun(t *testing.T) {
	const want = "minilang runtime error: sync-epoch stamp 4294967296 is past 4294967295, the widest a store slot keeps (event.MaxTS)"
	if re, ok := AsRuntimeError(event.StampLimit{TS: event.MaxTS + 1}); !ok || re.Error() != want {
		t.Errorf("StampLimit: %v, %v; want %q", re, ok, want)
	}
	if _, ok := AsRuntimeError("boom"); ok {
		t.Error("a string panic taken as a runtime error")
	}
}
