package vm_test

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	. "ddprof/internal/minilang"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// capture collects the access stream. The mutex only matters for threaded
// programs; single-threaded captures never contend.
type capture struct {
	mu  sync.Mutex
	evs []event.Access
}

func (c *capture) Access(a event.Access) {
	c.mu.Lock()
	c.evs = append(c.evs, a)
	c.mu.Unlock()
}

// runBoth executes p under both executors and returns streams and infos.
func runBoth(t *testing.T, p *Program, opt interp.Options) (iev, vev []event.Access, iinf, vinf *interp.RunInfo) {
	t.Helper()
	var ic, vc capture
	iinf, ierr := interp.Run(p, &ic, opt)
	vinf, verr := vm.Run(p, &vc, opt)
	if (ierr == nil) != (verr == nil) {
		t.Fatalf("%s: error mismatch: interp=%v vm=%v", p.Name, ierr, verr)
	}
	if ierr != nil && ierr.Error() != verr.Error() {
		t.Fatalf("%s: error text mismatch:\n  interp: %v\n  vm:     %v", p.Name, ierr, verr)
	}
	return ic.evs, vc.evs, iinf, vinf
}

// expectSame runs p under both executors and requires byte-identical event
// streams and equal run summaries. Only for deterministic (single-threaded)
// programs.
func expectSame(t *testing.T, p *Program, opt interp.Options) {
	t.Helper()
	iev, vev, iinf, vinf := runBoth(t, p, opt)
	diffStreams(t, p.Name, iev, vev)
	diffInfo(t, p.Name, iinf, vinf)
}

func diffStreams(t *testing.T, name string, iev, vev []event.Access) {
	t.Helper()
	if len(iev) != len(vev) {
		t.Fatalf("%s: stream length mismatch: interp=%d vm=%d", name, len(iev), len(vev))
	}
	for i := range iev {
		if iev[i] != vev[i] {
			t.Fatalf("%s: event %d differs:\n  interp: %+v\n  vm:     %+v", name, i, iev[i], vev[i])
		}
	}
}

// sameVars compares final-variable maps, treating NaN as equal to NaN
// (reflect.DeepEqual would not).
func sameVars(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok {
			return false
		}
		if av != bv && !(math.IsNaN(av) && math.IsNaN(bv)) {
			return false
		}
	}
	return true
}

func diffInfo(t *testing.T, name string, a, b *interp.RunInfo) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: info mismatch: interp=%v vm=%v", name, a, b)
		}
		return
	}
	if a.Accesses != b.Accesses {
		t.Errorf("%s: accesses: interp=%d vm=%d", name, a.Accesses, b.Accesses)
	}
	if !reflect.DeepEqual(a.LoopIters, b.LoopIters) {
		t.Errorf("%s: loop iters: interp=%v vm=%v", name, a.LoopIters, b.LoopIters)
	}
	if !reflect.DeepEqual(a.LoopRecords, b.LoopRecords) {
		t.Errorf("%s: loop records: interp=%v vm=%v", name, a.LoopRecords, b.LoopRecords)
	}
	if !sameVars(a.Vars, b.Vars) {
		t.Errorf("%s: vars: interp=%v vm=%v", name, a.Vars, b.Vars)
	}
	if !reflect.DeepEqual(a.Calls, b.Calls) {
		t.Errorf("%s: calls: interp=%v vm=%v", name, a.Calls, b.Calls)
	}
	if !reflect.DeepEqual(a.CallEdges, b.CallEdges) {
		t.Errorf("%s: call edges: interp=%v vm=%v", name, a.CallEdges, b.CallEdges)
	}
	if a.MaxCallDepth != b.MaxCallDepth {
		t.Errorf("%s: max call depth: interp=%d vm=%d", name, a.MaxCallDepth, b.MaxCallDepth)
	}
}

// corpus returns hand-written programs covering every language construct and
// the interpreter quirks the VM must clone.
func corpus() []*Program {
	var ps []*Program
	add := func(name string, fn func(*Block)) {
		p := New(name)
		p.MainFunc(fn)
		ps = append(ps, p)
	}

	add("scalars", func(b *Block) {
		b.Decl("x", Ci(3))
		b.Decl("y", Add(V("x"), Ci(4)))
		b.Assign("x", Mul(V("y"), V("y")))
		b.Reduce("x", OpAdd, Ci(1))
	})

	add("arrays", func(b *Block) {
		b.DeclArr("a", Ci(16))
		b.For("i", Ci(0), Ci(16), Ci(1), LoopOpt{}, func(b *Block) {
			b.Set("a", V("i"), Mul(V("i"), Ci(2)))
		})
		b.Decl("s", Ci(0))
		b.For("i", Ci(0), LenOf("a"), Ci(1), LoopOpt{}, func(b *Block) {
			b.Reduce("s", OpAdd, Idx("a", V("i")))
		})
		b.SetReduce("a", Ci(3), OpMul, Ci(5))
	})

	add("nested-loops", func(b *Block) {
		b.DeclArr("m", Ci(36))
		b.For("i", Ci(0), Ci(6), Ci(1), LoopOpt{}, func(b *Block) {
			b.For("j", Ci(0), Ci(6), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("m", Add(Mul(V("i"), Ci(6)), V("j")), Add(V("i"), V("j")))
			})
		})
	})

	add("zero-trip", func(b *Block) {
		b.Decl("x", Ci(0))
		b.For("i", Ci(5), Ci(5), Ci(1), LoopOpt{}, func(b *Block) {
			b.Assign("x", Ci(99))
		})
		b.While(Lt(V("x"), Ci(0)), LoopOpt{}, func(b *Block) {
			b.Assign("x", Ci(98))
		})
		b.Assign("x", Add(V("x"), Ci(1)))
	})

	add("while-countdown", func(b *Block) {
		b.Decl("n", Ci(9))
		b.Decl("s", Ci(0))
		b.While(Gt(V("n"), Ci(0)), LoopOpt{}, func(b *Block) {
			b.Reduce("s", OpAdd, V("n"))
			b.Assign("n", Sub(V("n"), Ci(1)))
		})
	})

	add("branches", func(b *Block) {
		b.Decl("x", Ci(7))
		b.If(Gt(V("x"), Ci(3)), func(b *Block) {
			b.Assign("x", Ci(1))
		}, func(b *Block) {
			b.Assign("x", Ci(2))
		})
		b.If(And(Gt(V("x"), Ci(0)), Lt(V("x"), Ci(10))), func(b *Block) {
			b.Assign("x", Ci(3))
		}, nil)
		b.If(Or(Eq(V("x"), Ci(5)), Ne(V("x"), Ci(5))), func(b *Block) {
			b.Assign("x", Neg(V("x")))
		}, nil)
		b.If(Not(Eq(V("x"), Ci(0))), func(b *Block) {
			b.Assign("x", Ci(4))
		}, nil)
	})

	add("short-circuit-effects", func(b *Block) {
		// The right operand must evaluate (and emit) only when needed.
		b.Decl("x", Ci(0))
		b.Decl("y", Ci(1))
		b.If(And(Gt(V("x"), Ci(0)), Gt(V("y"), Ci(0))), func(b *Block) {
			b.Assign("y", Ci(2))
		}, nil)
		b.If(Or(Eq(V("x"), Ci(0)), Gt(V("y"), Ci(0))), func(b *Block) {
			b.Assign("y", Ci(3))
		}, nil)
	})

	{
		p := New("functions")
		p.Func("axpy", []string{"a", "x", "y"}, func(b *Block) {
			b.For("i", Ci(0), LenOf("x"), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("y", V("i"), Add(Mul(V("a"), Idx("x", V("i"))), Idx("y", V("i"))))
			})
		})
		p.Func("sum", []string{"x"}, func(b *Block) {
			b.Decl("s", Ci(0))
			b.For("i", Ci(0), LenOf("x"), Ci(1), LoopOpt{}, func(b *Block) {
				b.Reduce("s", OpAdd, Idx("x", V("i")))
			})
			b.Ret(V("s"))
		})
		p.MainFunc(func(b *Block) {
			b.DeclArr("u", Ci(8))
			b.DeclArr("v", Ci(8))
			b.For("i", Ci(0), Ci(8), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("u", V("i"), V("i"))
				b.Set("v", V("i"), Ci(1))
			})
			b.Call("axpy", Ci(2), V("u"), V("v"))
			b.Decl("total", CallE("sum", V("v")))
		})
		ps = append(ps, p)
	}

	{
		p := New("recursion")
		p.Func("fib", []string{"n"}, func(b *Block) {
			b.If(Lt(V("n"), Ci(2)), func(b *Block) {
				b.Ret(V("n"))
			}, nil)
			b.Ret(Add(CallE("fib", Sub(V("n"), Ci(1))), CallE("fib", Sub(V("n"), Ci(2)))))
		})
		p.MainFunc(func(b *Block) {
			b.Decl("r", CallE("fib", Ci(10)))
		})
		ps = append(ps, p)
	}

	{
		// Falling off a function's end returns the last callee's value — an
		// interpreter quirk the VM must clone.
		p := New("fall-off-end")
		p.Func("inner", nil, func(b *Block) {
			b.Ret(Ci(42))
		})
		p.Func("outer", nil, func(b *Block) {
			b.Decl("x", Ci(1))
			b.Call("inner")
		})
		p.MainFunc(func(b *Block) {
			b.Decl("r", CallE("outer"))
		})
		ps = append(ps, p)
	}

	{
		// Return from inside nested loops and a lock-free region: the
		// unwinding must credit loop iteration counts identically.
		p := New("return-unwind")
		p.Func("findfirst", []string{"a", "want"}, func(b *Block) {
			b.For("i", Ci(0), LenOf("a"), Ci(1), LoopOpt{}, func(b *Block) {
				b.For("j", Ci(0), Ci(3), Ci(1), LoopOpt{}, func(b *Block) {
					b.If(Eq(Idx("a", V("i")), V("want")), func(b *Block) {
						b.Ret(V("i"))
					}, nil)
				})
			})
			b.Ret(Neg(Ci(1)))
		})
		p.MainFunc(func(b *Block) {
			b.DeclArr("a", Ci(10))
			b.For("i", Ci(0), Ci(10), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("a", V("i"), V("i"))
			})
			b.Decl("at", CallE("findfirst", V("a"), Ci(6)))
		})
		ps = append(ps, p)
	}

	add("builtins", func(b *Block) {
		b.Decl("x", CallE("sqrt", Ci(81)))
		b.Assign("x", CallE("pow", V("x"), Ci(2)))
		b.Assign("x", CallE("min", V("x"), CallE("max", Ci(3), Ci(4))))
		b.Assign("x", CallE("abs", Neg(V("x"))))
		b.Assign("x", CallE("floor", CallE("exp", Ci(1))))
		b.Assign("x", Add(CallE("sin", Ci(0)), CallE("cos", Ci(0))))
		b.Assign("x", CallE("ceil", CallE("log", Ci(10))))
	})

	add("int-ops", func(b *Block) {
		b.Decl("x", IDiv(Ci(17), Ci(5)))
		b.Assign("x", Mod(Ci(17), Ci(5)))
		b.Assign("x", BAnd(Ci(12), Ci(10)))
		b.Assign("x", BOr(Ci(12), Ci(10)))
		b.Assign("x", Xor(Ci(12), Ci(10)))
		b.Assign("x", Shl(Ci(3), Ci(4)))
		b.Assign("x", Shr(Ci(48), Ci(2)))
		b.Assign("x", Div(Ci(7), Ci(2)))
	})

	add("free-redecl", func(b *Block) {
		b.DeclArr("a", Ci(8))
		b.Set("a", Ci(0), Ci(1))
		b.Free("a")
		b.DeclArr("a", Ci(8))
		b.Set("a", Ci(1), Ci(2))
		b.DeclArr("a", Ci(8)) // same size: reused, no events
		b.Set("a", Ci(2), Ci(3))
		b.DeclArr("a", Ci(4)) // different size: fresh allocation
		b.Set("a", Ci(3), Ci(4))
		b.Decl("x", Ci(5))
		b.Free("x")
		b.Decl("x", Ci(6))
	})

	{
		// Computed indices through pointer-like indirection: an index array
		// drives accesses into a data array.
		p := New("indirect")
		p.MainFunc(func(b *Block) {
			b.DeclArr("idx", Ci(8))
			b.DeclArr("data", Ci(8))
			b.For("i", Ci(0), Ci(8), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("idx", V("i"), Mod(Mul(V("i"), Ci(5)), Ci(8)))
				b.Set("data", V("i"), Ci(0))
			})
			b.For("i", Ci(0), Ci(8), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("data", Idx("idx", V("i")), V("i"))
			})
		})
		ps = append(ps, p)
	}

	return ps
}

func TestCorpusEquivalence(t *testing.T) {
	for _, p := range corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			expectSame(t, p, interp.Options{})
			expectSame(t, p, interp.Options{Timestamps: true})
		})
	}
}

// TestRuntimeErrorEquivalence pins error text and the event prefix emitted
// before each failure.
func TestRuntimeErrorEquivalence(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Block)
	}{
		{"undefined-var", func(b *Block) { b.Assign("nope", Ci(1)) }},
		{"undefined-array", func(b *Block) { b.Set("nope", Ci(0), Ci(1)) }},
		{"undefined-read", func(b *Block) { b.Decl("x", V("nope")) }},
		{"scalar-as-array", func(b *Block) {
			b.Decl("x", Ci(1))
			b.Set("x", Ci(0), Ci(2))
		}},
		{"array-as-scalar", func(b *Block) {
			b.DeclArr("a", Ci(4))
			b.Assign("a", Ci(2))
		}},
		{"oob-low", func(b *Block) {
			b.DeclArr("a", Ci(4))
			b.Set("a", Neg(Ci(1)), Ci(0))
		}},
		{"oob-high", func(b *Block) {
			b.DeclArr("a", Ci(4))
			b.Decl("x", Idx("a", Ci(4)))
		}},
		{"bad-size", func(b *Block) {
			b.Decl("n", Ci(0))
			b.DeclArr("a", V("n"))
		}},
		{"div-zero", func(b *Block) { b.Decl("x", Div(Ci(1), Ci(0))) }},
		{"idiv-zero", func(b *Block) { b.Decl("x", IDiv(Ci(1), Ci(0))) }},
		{"mod-zero", func(b *Block) { b.Decl("x", Mod(Ci(1), Ci(0))) }},
		{"free-undefined", func(b *Block) { b.Free("nope") }},
		{"unknown-function", func(b *Block) { b.Call("nope", Ci(1)) }},
		{"arity", func(b *Block) {
			b.Decl("x", CallE("sqrt", Ci(1), Ci(2)))
		}},
		{"barrier-outside-spawn", func(b *Block) { b.Barrier() }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := New("err-" + tc.name)
			p.MainFunc(func(b *Block) {
				b.Decl("warm", Ci(1)) // some events before the failure
				tc.fn(b)
			})
			iev, vev, _, _ := runBoth(t, p, interp.Options{})
			diffStreams(t, p.Name, iev, vev)
		})
	}
}

func TestUserFunctionArityError(t *testing.T) {
	p := New("err-user-arity")
	p.Func("f", []string{"a", "b"}, func(b *Block) {
		b.Ret(Add(V("a"), V("b")))
	})
	p.MainFunc(func(b *Block) {
		b.Call("f", Ci(1))
	})
	iev, vev, _, _ := runBoth(t, p, interp.Options{})
	diffStreams(t, p.Name, iev, vev)
}

// TestWorkloadEquivalence is the broad pin: every sequential workload
// program's event stream must be byte-identical under both executors. Its
// scale, 0.5, is internal/core's goldenWorkloadScale, at which core's
// fixtures pin the profiles of the interpreter's streams: this test is what
// pins the VM's streams, and so every profile production computes from them,
// to those fixtures.
func TestWorkloadEquivalence(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(workloads.Config{Scale: 0.5, Threads: 4})
			expectSame(t, p, interp.Options{})
		})
	}
}

// --- VM edge cases (satellite 4) ---

// TestAddrReuseAfterFree pins that both executors recycle the same simulated
// addresses: free an array, allocate an equal-sized one, and require the
// second allocation's events to land on the first's addresses.
func TestAddrReuseAfterFree(t *testing.T) {
	p := New("addr-reuse")
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(6))
		b.Set("a", Ci(0), Ci(1))
		b.Free("a")
		b.DeclArr("fresh", Ci(6))
		b.Set("fresh", Ci(0), Ci(2))
	})
	var vc capture
	if _, err := vm.Run(p, &vc, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	// Events: a[0] write, 6 removes, fresh[0] write. The fresh array must
	// reuse a's storage.
	n := len(vc.evs)
	first, last := vc.evs[0], vc.evs[n-1]
	if first.Kind != event.Write || last.Kind != event.Write {
		t.Fatalf("unexpected stream shape: %+v", vc.evs)
	}
	if first.Addr != last.Addr {
		t.Errorf("freed storage not recycled: first write at %#x, post-free write at %#x", first.Addr, last.Addr)
	}
	expectSame(t, p, interp.Options{})
}

// TestAliasThroughCalls pins by-reference array passing: writes through a
// parameter must hit the caller's addresses, through two call levels, and
// the aliased storage must survive both returns.
func TestAliasThroughCalls(t *testing.T) {
	p := New("alias-calls")
	p.Func("deep", []string{"z"}, func(b *Block) {
		b.Set("z", Ci(1), Ci(77))
	})
	p.Func("mid", []string{"y"}, func(b *Block) {
		b.Set("y", Ci(0), Ci(66))
		b.Call("deep", V("y"))
	})
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(4))
		b.Set("a", Ci(0), Ci(0))
		b.Call("mid", V("a"))
		b.Decl("x", Idx("a", Ci(1)))
	})
	var vc capture
	info, err := vm.Run(p, &vc, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := info.Vars["x"]; got != 77 {
		t.Errorf("write through aliased parameter lost: x = %v, want 77", got)
	}
	// a[0]'s direct write and mid's write through y must share an address.
	byVal := map[uint64]int{}
	for _, e := range vc.evs {
		if e.Kind == event.Write {
			byVal[e.Addr]++
		}
	}
	for addr, n := range byVal {
		if n > 1 {
			// a[0]: written by main then by mid — the alias collapses them.
			_ = addr
			return
		}
	}
	t.Errorf("no address written twice; aliasing broke: %+v", byVal)
}

func TestAliasEquivalence(t *testing.T) {
	p := New("alias-equiv")
	p.Func("deep", []string{"z"}, func(b *Block) {
		b.Set("z", Ci(1), Ci(77))
	})
	p.Func("mid", []string{"y"}, func(b *Block) {
		b.Set("y", Ci(0), Ci(66))
		b.Call("deep", V("y"))
		b.DeclArr("local", Ci(3))
		b.Set("local", Ci(0), Ci(5))
	})
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(4))
		b.Call("mid", V("a"))
		b.Call("mid", V("a"))
		b.Decl("x", Idx("a", Ci(1)))
	})
	expectSame(t, p, interp.Options{})
}

// TestZeroTripLoopContext pins the loop-context stack across zero-trip
// loops: the iteration vector must push and pop cleanly, leaving following
// events with the enclosing context's vector.
func TestZeroTripLoopContext(t *testing.T) {
	p := New("zero-trip-ctx")
	p.MainFunc(func(b *Block) {
		b.Decl("x", Ci(0))
		b.For("i", Ci(0), Ci(2), Ci(1), LoopOpt{}, func(b *Block) {
			b.For("j", Ci(3), Ci(3), Ci(1), LoopOpt{}, func(b *Block) { // zero-trip
				b.Assign("x", Ci(9))
			}) //nolint
			b.Assign("x", Add(V("x"), Ci(1)))
		})
		b.Assign("x", Add(V("x"), Ci(100)))
	})
	iev, vev, iinf, vinf := runBoth(t, p, interp.Options{})
	diffStreams(t, p.Name, iev, vev)
	diffInfo(t, p.Name, iinf, vinf)
	// The final statement must carry the empty iteration vector.
	last := vev[len(vev)-1]
	if last.IterVec != 0 {
		t.Errorf("post-loop event kept a stale iteration vector: %#x", last.IterVec)
	}
	// The zero-trip inner loop must not appear in the loop records.
	if n := len(vinf.LoopRecords); n != 1 {
		t.Errorf("want 1 executed loop record, got %d: %+v", n, vinf.LoopRecords)
	}
}

// threadStreams groups a captured stream by thread, clears timestamps
// (global stamp order is scheduling-dependent) and canonicalizes addresses
// to per-thread first-occurrence indices: per-thread locals allocate from
// the shared arena, so their raw addresses depend on thread interleaving in
// BOTH executors, but the per-thread address *pattern* is deterministic:
// freed storage is recycled within its thread only (interp.FreeList).
func threadStreams(evs []event.Access) map[int32][]event.Access {
	m := make(map[int32][]event.Access)
	canon := make(map[int32]map[uint64]uint64)
	for _, e := range evs {
		e.TS = 0
		c := canon[e.Thread]
		if c == nil {
			c = make(map[uint64]uint64)
			canon[e.Thread] = c
		}
		id, ok := c[e.Addr]
		if !ok {
			id = uint64(len(c))
			c[e.Addr] = id
		}
		e.Addr = id
		m[e.Thread] = append(m[e.Thread], e)
	}
	return m
}

// TestMutexHandoffYield1 pins threaded behavior under maximal scheduler
// fuzz: per-thread event sequences must match between executors, and the
// lock-protected counter must still total correctly in both.
func TestMutexHandoffYield1(t *testing.T) {
	const threads, rounds = 4, 25
	p := New("mutex-handoff")
	p.MainFunc(func(b *Block) {
		b.Decl("counter", Ci(0))
		b.Spawn(threads, func(b *Block) {
			b.For("i", Ci(0), Ci(rounds), Ci(1), LoopOpt{}, func(b *Block) {
				b.Lock("m", func(b *Block) {
					b.Assign("counter", Add(V("counter"), Ci(1)))
				})
			})
			b.Barrier()
			b.Lock("m", func(b *Block) {
				b.Decl("seen", V("counter"))
			})
		})
		b.Decl("final", V("counter"))
	})
	opt := interp.Options{Timestamps: true, YieldEvery: 1}
	iev, vev, iinf, vinf := runBoth(t, p, opt)
	want := float64(threads * rounds)
	if iinf.Vars["final"] != want || vinf.Vars["final"] != want {
		t.Fatalf("lock-protected counter lost updates: interp=%v vm=%v want %v",
			iinf.Vars["final"], vinf.Vars["final"], want)
	}
	it, vt := threadStreams(iev), threadStreams(vev)
	if len(it) != len(vt) {
		t.Fatalf("thread count mismatch: interp=%d vm=%d", len(it), len(vt))
	}
	for id, is := range it {
		vs := vt[id]
		if len(is) != len(vs) {
			t.Fatalf("thread %d: stream length mismatch: interp=%d vm=%d", id, len(is), len(vs))
		}
		for i := range is {
			// Reads of the shared counter see scheduling-dependent values;
			// compare the instrumentation-visible fields.
			if is[i] != vs[i] {
				t.Fatalf("thread %d event %d differs:\n  interp: %+v\n  vm:     %+v", id, i, is[i], vs[i])
			}
		}
	}
	diffInfo(t, p.Name, iinf, vinf)
}

// TestSpawnEquivalence compares per-thread streams of a barrier-phased
// parallel program, including a parallel workload build.
func TestSpawnEquivalence(t *testing.T) {
	p := New("spawn-phases")
	p.MainFunc(func(b *Block) {
		b.DeclArr("a", Ci(64))
		b.DeclArr("bb", Ci(64))
		b.For("i", Ci(0), Ci(64), Ci(1), LoopOpt{}, func(b *Block) {
			b.Set("a", V("i"), V("i"))
		})
		b.Spawn(4, func(b *Block) {
			b.Decl("lo", Mul(Tid(), Ci(16)))
			b.For("i", V("lo"), Add(V("lo"), Ci(16)), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("bb", V("i"), Mul(Idx("a", V("i")), Ci(2)))
			})
			b.Barrier()
			b.For("i", V("lo"), Add(V("lo"), Ci(16)), Ci(1), LoopOpt{}, func(b *Block) {
				b.Set("a", V("i"), Idx("bb", Sub(Ci(63), V("i"))))
			})
		})
		b.Decl("check", Idx("a", Ci(5)))
	})
	iev, vev, iinf, vinf := runBoth(t, p, interp.Options{Timestamps: true})
	it, vt := threadStreams(iev), threadStreams(vev)
	if len(it) != len(vt) {
		t.Fatalf("thread group mismatch: interp=%d vm=%d", len(it), len(vt))
	}
	for id, is := range it {
		vs := vt[id]
		if !reflect.DeepEqual(is, vs) {
			t.Fatalf("thread %d streams differ (interp %d events, vm %d)", id, len(is), len(vs))
		}
	}
	diffInfo(t, p.Name, iinf, vinf)
}

func TestParallelWorkloadEquivalence(t *testing.T) {
	for _, w := range workloads.Starbench() {
		w := w
		if w.BuildParallel == nil {
			continue
		}
		t.Run(w.Name, func(t *testing.T) {
			p := w.BuildParallel(workloads.Config{Scale: 0.1, Threads: 3})
			iev, vev, iinf, vinf := runBoth(t, p, interp.Options{Timestamps: true})
			it, vt := threadStreams(iev), threadStreams(vev)
			if len(it) != len(vt) {
				t.Fatalf("thread group mismatch: interp=%d vm=%d", len(it), len(vt))
			}
			for id, is := range it {
				vs := vt[id]
				if len(is) != len(vs) {
					t.Fatalf("thread %d: length mismatch interp=%d vm=%d", id, len(is), len(vs))
				}
			}
			diffInfo(t, p.Name, iinf, vinf)
		})
	}
}

// TestNestedSpawnError pins the doubled error prefix the interpreter
// produces when a spawned thread fails.
func TestNestedSpawnError(t *testing.T) {
	p := New("thread-error")
	p.MainFunc(func(b *Block) {
		b.Spawn(2, func(b *Block) {
			b.If(Eq(Tid(), Ci(1)), func(b *Block) {
				b.Decl("x", Div(Ci(1), Ci(0)))
			}, nil)
		})
	})
	_, ierr := interp.Run(p, nil, interp.Options{})
	_, verr := vm.Run(p, nil, interp.Options{})
	if ierr == nil || verr == nil {
		t.Fatalf("want errors, got interp=%v vm=%v", ierr, verr)
	}
	if ierr.Error() != verr.Error() {
		t.Fatalf("error mismatch:\n  interp: %v\n  vm:     %v", ierr, verr)
	}
}
