// Package interp executes minilang programs and instruments every memory
// access — the substitute for the paper's LLVM instrumentation pass.
//
// The interpreter assigns each scalar and array element a simulated byte
// address and, when a Hook is installed, reports every read and write with
// its address, source location, variable, thread ID, static loop context,
// packed iteration vector and (optionally) a sync-epoch timestamp. With a nil
// Hook it performs the same computation without event construction — the
// "native" baseline the slowdown experiments divide by.
//
// Run is the semantics of record: production executes with vm.Run, which has
// the same signature and must emit the same event stream byte for byte, and
// tests, fuzzers and ddbench's ground truth call this one as the reference.
package interp

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
)

// Hook receives one event per memory access; it is an alias of the shared
// event.Hook contract. core.Serial, core.Parallel and core.MT all satisfy it.
type Hook = event.Hook

// Options configure a run.
type Options struct {
	// Timestamps stamps every access with its thread's sync epoch
	// (event.Batcher) — required when profiling multi-threaded targets (§V-B):
	// happens-before across threads implies a strictly larger stamp.
	Timestamps bool
	// YieldEvery, when positive, yields the processor roughly every N
	// accesses per thread, before the access is reported. On machines with
	// few cores the Go scheduler otherwise runs short thread bodies to
	// completion, hiding the interleavings that multi-threaded targets
	// exhibit on real parallel hardware; the fuzz restores them. Race flags
	// do not depend on it: stamps follow synchronisation, not the schedule.
	YieldEvery int
}

// CallEdge is one dynamic caller→callee pair.
type CallEdge struct {
	Caller, Callee string
}

// RunInfo is returned after a successful run.
type RunInfo struct {
	// Accesses is the number of read/write accesses the program performed.
	Accesses uint64
	// LoopIters is the total iteration count per static loop.
	LoopIters map[prog.LoopID]uint64
	// LoopRecords lists executed loops in the profiler's output format.
	LoopRecords []dep.LoopRecord
	// Vars holds the final values of the main frame's scalars, so callers
	// can check that the target program computed something sensible.
	Vars map[string]float64
	// Calls counts dynamic invocations per function (main included, once).
	Calls map[string]uint64
	// CallEdges counts dynamic caller→callee invocations — the §VIII call
	// tree, collapsed to a call graph.
	CallEdges map[CallEdge]uint64
	// MaxCallDepth is the deepest dynamic call stack observed.
	MaxCallDepth int
}

// Run executes p's main function.
func Run(p *minilang.Program, hook Hook, opt Options) (info *RunInfo, err error) {
	main := p.Funcs["main"]
	if main == nil {
		return nil, fmt.Errorf("interp: program %q has no main", p.Name)
	}
	in := &interp{
		p:         p,
		hook:      hook,
		opt:       opt,
		ar:        NewArena(),
		mutexes:   make(map[string]*sync.Mutex),
		loopIters: make([]atomic.Uint64, len(p.Meta.Loops())),
		calls:     make(map[string]uint64),
		callEdges: make(map[CallEdge]uint64),
	}
	root := &frame{vars: make(map[string]*binding)}
	in.root = root
	t := &tstate{in: in, out: event.NewBatcher(hook, opt.Timestamps), free: FreeList{}, frame: root, fnStack: []string{"main"}}
	in.recordCall("", "main", 1)

	defer func() {
		if r := recover(); r != nil {
			if re, ok := AsRuntimeError(r); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	defer t.out.Flush() // on the error unwind too
	t.exec(main.Body)
	if e := in.threadErr.Load(); e != nil {
		return nil, *e
	}

	info = &RunInfo{
		Accesses:  in.accesses.Load() + t.accesses,
		LoopIters: make(map[prog.LoopID]uint64),
		Vars:      make(map[string]float64),
		Calls:     in.calls,
		CallEdges: in.callEdges,
	}
	info.MaxCallDepth = in.maxDepth
	for i := range in.loopIters {
		if n := in.loopIters[i].Load(); n > 0 {
			id := prog.LoopID(i)
			info.LoopIters[id] = n
			l := p.Meta.Loop(id)
			info.LoopRecords = append(info.LoopRecords, dep.LoopRecord{
				Begin: l.Begin, End: l.End, Iterations: n,
			})
		}
	}
	sort.Slice(info.LoopRecords, func(i, j int) bool {
		return info.LoopRecords[i].Begin < info.LoopRecords[j].Begin
	})
	for name, b := range root.vars {
		if !b.isArr {
			info.Vars[name] = in.ar.Load(b.base)
		}
	}
	in.ar.Recycle()
	return info, nil
}

// interp is the shared state of one run.
type interp struct {
	p    *minilang.Program
	hook Hook
	opt  Options
	ar   *Arena

	muMu    sync.Mutex
	mutexes map[string]*sync.Mutex

	callMu    sync.Mutex
	calls     map[string]uint64
	callEdges map[CallEdge]uint64
	maxDepth  int

	accesses  atomic.Uint64 // accesses of joined threads
	loopIters []atomic.Uint64
	root      *frame
	threadErr atomic.Pointer[error]
}

// recordCall tallies one dynamic invocation; depth updates the high-water
// mark.
func (in *interp) recordCall(caller, callee string, depth int) {
	in.callMu.Lock()
	in.calls[callee]++
	if caller != "" {
		in.callEdges[CallEdge{Caller: caller, Callee: callee}]++
	}
	if depth > in.maxDepth {
		in.maxDepth = depth
	}
	in.callMu.Unlock()
}

func (in *interp) mutex(name string) *sync.Mutex {
	in.muMu.Lock()
	defer in.muMu.Unlock()
	m := in.mutexes[name]
	if m == nil {
		m = new(sync.Mutex)
		in.mutexes[name] = m
	}
	return m
}

// binding is a variable's storage.
type binding struct {
	base  uint64 // word index
	words int
	varID loc.VarID
	isArr bool
}

// frame is a lexical scope.
type frame struct {
	parent *frame
	vars   map[string]*binding
}

func (f *frame) lookup(name string) (*frame, *binding) {
	for s := f; s != nil; s = s.parent {
		if b, ok := s.vars[name]; ok {
			return s, b
		}
	}
	return nil, nil
}

// tstate is the per-target-thread execution state.
type tstate struct {
	in       *interp
	id       int32
	out      event.Batcher // the thread's events on their way to in.hook
	free     FreeList
	frame    *frame
	bar      *Barrier
	iters    []uint32
	vec      uint64
	accesses uint64
	ret      float64
	fnStack  []string
}

func (t *tstate) fail(format string, args ...any) {
	panic(RuntimeError{fmt.Sprintf(format, args...)})
}

// emit reports one access to the hook.
func (t *tstate) emit(kind event.Kind, w uint64, ln loc.SourceLoc, v loc.VarID, ctx uint32, fl event.Flags) {
	if kind != event.Remove {
		t.accesses++
	}
	if t.in.hook == nil {
		return
	}
	if y := t.in.opt.YieldEvery; y > 0 && t.accesses%uint64(y) == uint64(t.id)%uint64(y) {
		runtime.Gosched()
	}
	*t.out.Next() = event.Access{
		Addr:    AddrOf(w),
		TS:      t.out.TS,
		IterVec: t.vec,
		Loc:     ln,
		Var:     v,
		CtxID:   ctx,
		Thread:  t.id,
		Kind:    kind,
		Flags:   fl,
	}
	t.out.Done()
}

// loadWord reads a word and reports the access.
func (t *tstate) loadWord(w uint64, ln loc.SourceLoc, v loc.VarID, ctx uint32, fl event.Flags) float64 {
	val := t.in.ar.Load(w)
	t.emit(event.Read, w, ln, v, ctx, fl)
	return val
}

// storeWord writes a word and reports the access.
func (t *tstate) storeWord(w uint64, val float64, ln loc.SourceLoc, v loc.VarID, ctx uint32, fl event.Flags) {
	t.in.ar.Store(w, val)
	t.emit(event.Write, w, ln, v, ctx, fl)
}

// pushLoop/popLoop/setIter maintain the iteration vector.
func (t *tstate) pushLoop() {
	t.iters = append(t.iters, 0)
	t.vec = event.PackIterVec(t.iters)
}

func (t *tstate) popLoop() {
	t.iters = t.iters[:len(t.iters)-1]
	t.vec = event.PackIterVec(t.iters)
}

func (t *tstate) setIter(n uint32) {
	t.iters[len(t.iters)-1] = n
	t.vec = event.PackIterVec(t.iters)
}

// declScalar finds or allocates a scalar binding in the current frame.
func (t *tstate) declScalar(name string) *binding {
	if b, ok := t.frame.vars[name]; ok && !b.isArr {
		return b
	}
	b := &binding{base: t.in.ar.Alloc(t.free, 1), words: 1, varID: t.in.p.Tab.Var(name)}
	t.frame.vars[name] = b
	return b
}

// scalar resolves a scalar variable for read/write.
func (t *tstate) scalar(name string) *binding {
	_, b := t.frame.lookup(name)
	if b == nil {
		t.fail("undefined variable %q", name)
	}
	if b.isArr {
		t.fail("variable %q is an array", name)
	}
	return b
}

// array resolves an array variable.
func (t *tstate) array(name string) *binding {
	_, b := t.frame.lookup(name)
	if b == nil {
		t.fail("undefined array %q", name)
	}
	if !b.isArr {
		t.fail("variable %q is a scalar", name)
	}
	return b
}

// exec runs a statement list; it reports whether a Return unwound.
func (t *tstate) exec(stmts []minilang.Stmt) bool {
	for _, s := range stmts {
		if t.execStmt(s) {
			return true
		}
	}
	return false
}

func (t *tstate) execStmt(s minilang.Stmt) bool {
	ln, ctx := s.Pos()
	switch st := s.(type) {
	case *minilang.DeclStmt:
		b := t.declScalar(st.Name)
		v := t.eval(st.Init, ln, ctx)
		t.storeWord(b.base, v, ln, b.varID, ctx, 0)

	case *minilang.DeclArrStmt:
		size := int(t.eval(st.Size, ln, ctx))
		if size <= 0 {
			t.fail("array %q size %d", st.Name, size)
		}
		if b, ok := t.frame.vars[st.Name]; ok && b.isArr && b.words == size {
			return false // reuse the existing allocation
		}
		b := &binding{base: t.in.ar.Alloc(t.free, size), words: size, varID: t.in.p.Tab.Var(st.Name), isArr: true}
		t.frame.vars[st.Name] = b

	case *minilang.AssignStmt:
		b := t.scalar(st.Name)
		var v float64
		if st.Reduction {
			v = t.evalReduction(st.Val, b.base, ln, b.varID, ctx)
		} else {
			v = t.eval(st.Val, ln, ctx)
		}
		t.storeWord(b.base, v, ln, b.varID, ctx, redFlag(st.Reduction))

	case *minilang.AssignIdxStmt:
		b := t.array(st.Name)
		i := t.index(b, st.Name, st.Idx, ln, ctx)
		var v float64
		if st.Reduction {
			v = t.evalReduction(st.Val, b.base+uint64(i), ln, b.varID, ctx)
		} else {
			v = t.eval(st.Val, ln, ctx)
		}
		t.storeWord(b.base+uint64(i), v, ln, b.varID, ctx, redFlag(st.Reduction))

	case *minilang.ForStmt:
		return t.execFor(st)

	case *minilang.WhileStmt:
		return t.execWhile(st)

	case *minilang.IfStmt:
		if t.eval(st.Cond, ln, ctx) != 0 {
			return t.exec(st.Then)
		}
		return t.exec(st.Else)

	case *minilang.CallStmt:
		t.call(st.Fn, st.Args, ln, ctx)

	case *minilang.ReturnStmt:
		if st.Val != nil {
			t.ret = t.eval(st.Val, ln, ctx)
		} else {
			t.ret = 0
		}
		return true

	case *minilang.FreeStmt:
		f, b := t.frame.lookup(st.Name)
		if b == nil {
			t.fail("free of undefined %q", st.Name)
		}
		for w := 0; w < b.words; w++ {
			t.emit(event.Remove, b.base+uint64(w), ln, b.varID, ctx, 0)
		}
		t.free.Release(b.base, b.words)
		delete(f.vars, st.Name)

	case *minilang.SpawnStmt:
		t.execSpawn(st)

	case *minilang.LockStmt:
		mu := t.in.mutex(st.Mutex)
		mu.Lock()
		t.out.Acquire(event.SyncLock, mu)
		r := t.exec(st.Body)
		t.out.Release(event.SyncUnlock, mu)
		mu.Unlock()
		return r

	case *minilang.BarrierStmt:
		if t.bar == nil {
			t.fail("barrier outside spawn")
		}
		t.out.Release(event.SyncArrive, nil)
		t.bar.Wait()
		t.out.Acquire(event.SyncPass, nil)

	default:
		t.fail("unknown statement %T", s)
	}
	return false
}

// index evaluates and bounds-checks an array index.
func (t *tstate) index(b *binding, name string, e minilang.Expr, ln loc.SourceLoc, ctx uint32) int {
	i := int(t.eval(e, ln, ctx))
	if i < 0 || i >= b.words {
		t.fail("index %d out of range [0,%d) for %q at %v", i, b.words, name, ln)
	}
	return i
}

// evalReduction evaluates "x = x ⊕ e" marking the read of x as a reduction
// access. w is x's word.
func (t *tstate) evalReduction(val minilang.Expr, w uint64, ln loc.SourceLoc, v loc.VarID, ctx uint32) float64 {
	be, ok := val.(*minilang.BinExpr)
	if !ok {
		t.fail("reduction value is not a binary expression")
	}
	lv := t.loadWord(w, ln, v, ctx, event.FlagReduction)
	rv := t.eval(be.R, ln, ctx)
	return apply(be.Op, lv, rv, t)
}

func (t *tstate) execFor(st *minilang.ForStmt) bool {
	ln, ctx := st.Pos()
	b := t.declScalar(st.Var)
	t.storeWord(b.base, t.eval(st.From, ln, ctx), ln, b.varID, ctx, event.FlagInduction)
	t.pushLoop()
	var n uint32
	returned := false
	for {
		// The condition check and the increment are attributed to the
		// iteration they begin (i_{k+1} = i_k + step evaluated at the top
		// of iteration k+1). Body reads of the induction variable then see
		// a same-iteration write, so induction updates never register as
		// carried RAW — they are loop control, which parallelization
		// replaces, not a parallelism-preventing dependence. The carried
		// WAR/WAW on the induction variable remain visible (Figure 1's
		// {RAW i} {WAR i} records at the loop line are still produced).
		cur := t.loadWord(b.base, ln, b.varID, st.BodyCtx, event.FlagInduction)
		if cur >= t.eval(st.To, ln, st.BodyCtx) {
			break
		}
		if t.exec(st.Body) {
			returned = true
			break
		}
		n++
		t.setIter(n)
		cur = t.loadWord(b.base, ln, b.varID, st.BodyCtx, event.FlagInduction)
		t.storeWord(b.base, cur+t.eval(st.Step, ln, st.BodyCtx), ln, b.varID, st.BodyCtx, event.FlagInduction)
	}
	t.popLoop()
	t.in.loopIters[st.Loop].Add(uint64(n))
	return returned
}

func (t *tstate) execWhile(st *minilang.WhileStmt) bool {
	ln, ctx := st.Pos()
	t.pushLoop()
	var n uint32
	returned := false
	for t.eval(st.Cond, ln, ctx) != 0 {
		t.setIter(n)
		if t.exec(st.Body) {
			returned = true
			break
		}
		n++
	}
	t.popLoop()
	t.in.loopIters[st.Loop].Add(uint64(n))
	return returned
}

func (t *tstate) execSpawn(st *minilang.SpawnStmt) {
	if t.bar != nil {
		t.fail("nested spawn")
	}
	CheckSpawn(st.Threads)
	bar := NewBarrier(st.Threads)
	frees := make([]FreeList, st.Threads)
	var wg sync.WaitGroup
	t.out.Release(event.SyncFork, nil)
	for tid := 0; tid < st.Threads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			ts := &tstate{
				in:      t.in,
				id:      tid,
				out:     t.out.Child(tid),
				free:    FreeList{},
				frame:   &frame{parent: t.frame, vars: make(map[string]*binding)},
				bar:     bar,
				iters:   append([]uint32(nil), t.iters...),
				vec:     t.vec,
				fnStack: append([]string(nil), t.fnStack...),
			}
			defer func() {
				ts.out.Release(event.SyncExit, nil) // on the error unwind too
				frees[tid] = ts.free
				t.in.accesses.Add(ts.accesses)
				if r := recover(); r != nil {
					if re, ok := AsRuntimeError(r); ok {
						e := error(re)
						t.in.threadErr.CompareAndSwap(nil, &e)
						bar.Abort()
						return
					}
					panic(r)
				}
			}()
			ts.exec(st.Body)
		}(int32(tid))
	}
	wg.Wait()
	t.out.Acquire(event.SyncJoin, nil)
	t.free.Adopt(frees...)
	if e := t.in.threadErr.Load(); e != nil {
		panic(RuntimeError{(*e).Error()})
	}
}

// call invokes a user function and returns its result.
func (t *tstate) call(fn string, args []minilang.Expr, ln loc.SourceLoc, ctx uint32) float64 {
	f := t.in.p.Funcs[fn]
	if f == nil {
		t.fail("call to undefined function %q", fn)
	}
	if len(args) != len(f.Params) {
		t.fail("function %q wants %d args, got %d", fn, len(f.Params), len(args))
	}
	caller := "main"
	if len(t.fnStack) > 0 {
		caller = t.fnStack[len(t.fnStack)-1]
	}
	t.fnStack = append(t.fnStack, fn)
	t.in.recordCall(caller, fn, len(t.fnStack))
	defer func() { t.fnStack = t.fnStack[:len(t.fnStack)-1] }()
	// Functions see their params, their locals and the root (main) frame —
	// C file-scope visibility.
	nf := &frame{parent: t.in.root, vars: make(map[string]*binding)}
	for i, prm := range f.Params {
		if ve, ok := args[i].(*minilang.VarExpr); ok {
			if _, b := t.frame.lookup(ve.Name); b != nil && b.isArr {
				nf.vars[prm] = b // arrays pass by reference
				continue
			}
		}
		v := t.eval(args[i], ln, ctx)
		b := &binding{base: t.in.ar.Alloc(t.free, 1), words: 1, varID: t.in.p.Tab.Var(prm)}
		nf.vars[prm] = b
		t.storeWord(b.base, v, ln, b.varID, ctx, 0)
	}
	saved := t.frame
	t.frame = nf
	t.ret = 0
	t.exec(f.Body)
	// Release parameter/local scalars? Locals persist per call frame and
	// are garbage at return; free their storage so recursive call chains
	// don't leak simulated memory. Array locals allocated inside the
	// function are released too; aliased parameter arrays are not.
	// Release in sorted name order: map iteration order would permute the
	// arena free lists between runs, making simulated addresses — and with
	// them every captured access stream — nondeterministic.
	names := make([]string, 0, len(nf.vars))
	for name := range nf.vars {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := nf.vars[name]
		aliased := false
		if b.isArr {
			for i, prm := range f.Params {
				if prm != name {
					continue
				}
				if ve, ok := args[i].(*minilang.VarExpr); ok {
					if _, ob := saved.lookup(ve.Name); ob == b {
						aliased = true
					}
				}
			}
		}
		if !aliased {
			t.free.Release(b.base, b.words)
		}
	}
	t.frame = saved
	return t.ret
}

// eval evaluates an expression; memory reads are attributed to line ln and
// context ctx.
func (t *tstate) eval(e minilang.Expr, ln loc.SourceLoc, ctx uint32) float64 {
	switch ex := e.(type) {
	case *minilang.ConstExpr:
		return ex.V
	case *minilang.VarExpr:
		b := t.scalar(ex.Name)
		return t.loadWord(b.base, ln, b.varID, ctx, 0)
	case *minilang.IndexExpr:
		b := t.array(ex.Name)
		i := t.index(b, ex.Name, ex.Idx, ln, ctx)
		return t.loadWord(b.base+uint64(i), ln, b.varID, ctx, 0)
	case *minilang.LenExpr:
		b := t.array(ex.Name)
		return float64(b.words)
	case *minilang.BinExpr:
		if ex.Op == minilang.OpAnd {
			if t.eval(ex.L, ln, ctx) == 0 {
				return 0
			}
			return boolTo(t.eval(ex.R, ln, ctx) != 0)
		}
		if ex.Op == minilang.OpOr {
			if t.eval(ex.L, ln, ctx) != 0 {
				return 1
			}
			return boolTo(t.eval(ex.R, ln, ctx) != 0)
		}
		l := t.eval(ex.L, ln, ctx)
		r := t.eval(ex.R, ln, ctx)
		return apply(ex.Op, l, r, t)
	case *minilang.UnExpr:
		v := t.eval(ex.X, ln, ctx)
		if ex.Op == minilang.OpNeg {
			return -v
		}
		return boolTo(v == 0)
	case *minilang.CallExpr:
		if fn, ok := builtins[ex.Fn]; ok {
			vals := make([]float64, len(ex.Args))
			for i, a := range ex.Args {
				vals[i] = t.eval(a, ln, ctx)
			}
			return fn(t, vals)
		}
		return t.call(ex.Fn, ex.Args, ln, ctx)
	case *minilang.TidExpr:
		return float64(t.id)
	}
	t.fail("unknown expression %T", e)
	return 0
}

// redFlag converts a statement's reduction mark to access flags.
func redFlag(r bool) event.Flags {
	if r {
		return event.FlagReduction
	}
	return 0
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// apply computes a non-short-circuit binary operation.
func apply(op minilang.BinOp, l, r float64, t *tstate) float64 {
	switch op {
	case minilang.OpAdd:
		return l + r
	case minilang.OpSub:
		return l - r
	case minilang.OpMul:
		return l * r
	case minilang.OpDiv:
		if r == 0 {
			t.fail("division by zero")
		}
		return l / r
	case minilang.OpIDiv:
		if int64(r) == 0 {
			t.fail("integer division by zero")
		}
		return float64(int64(l) / int64(r))
	case minilang.OpMod:
		if int64(r) == 0 {
			t.fail("modulo by zero")
		}
		return float64(int64(l) % int64(r))
	case minilang.OpBAnd:
		return float64(int64(l) & int64(r))
	case minilang.OpBOr:
		return float64(int64(l) | int64(r))
	case minilang.OpXor:
		return float64(int64(l) ^ int64(r))
	case minilang.OpShl:
		return float64(int64(l) << (uint64(r) & 63))
	case minilang.OpShr:
		return float64(int64(l) >> (uint64(r) & 63))
	case minilang.OpEq:
		return boolTo(l == r)
	case minilang.OpNe:
		return boolTo(l != r)
	case minilang.OpLt:
		return boolTo(l < r)
	case minilang.OpLe:
		return boolTo(l <= r)
	case minilang.OpGt:
		return boolTo(l > r)
	case minilang.OpGe:
		return boolTo(l >= r)
	}
	t.fail("unknown operator %d", op)
	return 0
}

// builtins are pure math functions; they never touch simulated memory.
var builtins = map[string]func(*tstate, []float64) float64{
	"sqrt":  func(t *tstate, a []float64) float64 { need(t, a, 1, "sqrt"); return math.Sqrt(a[0]) },
	"abs":   func(t *tstate, a []float64) float64 { need(t, a, 1, "abs"); return math.Abs(a[0]) },
	"floor": func(t *tstate, a []float64) float64 { need(t, a, 1, "floor"); return math.Floor(a[0]) },
	"ceil":  func(t *tstate, a []float64) float64 { need(t, a, 1, "ceil"); return math.Ceil(a[0]) },
	"sin":   func(t *tstate, a []float64) float64 { need(t, a, 1, "sin"); return math.Sin(a[0]) },
	"cos":   func(t *tstate, a []float64) float64 { need(t, a, 1, "cos"); return math.Cos(a[0]) },
	"exp":   func(t *tstate, a []float64) float64 { need(t, a, 1, "exp"); return math.Exp(a[0]) },
	"log":   func(t *tstate, a []float64) float64 { need(t, a, 1, "log"); return math.Log(a[0]) },
	"pow":   func(t *tstate, a []float64) float64 { need(t, a, 2, "pow"); return math.Pow(a[0], a[1]) },
	"min":   func(t *tstate, a []float64) float64 { need(t, a, 2, "min"); return math.Min(a[0], a[1]) },
	"max":   func(t *tstate, a []float64) float64 { need(t, a, 2, "max"); return math.Max(a[0], a[1]) },
}

func need(t *tstate, a []float64, n int, fn string) {
	if len(a) != n {
		t.fail("builtin %q wants %d args, got %d", fn, n, len(a))
	}
}
