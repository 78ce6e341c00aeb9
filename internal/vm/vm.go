package vm

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
)

// Run compiles and executes p's main function, emitting the same event
// stream the tree-walking interpreter would.
func Run(p *minilang.Program, hook event.Hook, opt interp.Options) (*interp.RunInfo, error) {
	prg, err := Compile(p)
	if err != nil {
		return nil, err
	}
	return prg.Run(hook, opt)
}

// bind is a variable's storage, the compiled twin of interp's binding.
// Identity matters: the aliased-parameter check at function return compares
// binding pointers, like the interpreter does.
type bind struct {
	base  uint64 // word index
	words int
	varID loc.VarID
	isArr bool
}

// slotEntry is one frame slot. aliasRef, when >= 0, records that the slot
// was filled by passing a caller variable by reference — the ref index used
// to re-resolve the name in the caller's chain at return time, reproducing
// the interpreter's live aliasing check.
type slotEntry struct {
	b        *bind
	aliasRef int32
}

// machine is the shared state of one run (interp's interp struct).
type machine struct {
	prg  *Program
	hook event.Hook
	opt  interp.Options
	ar   *interp.Arena

	mus   []*sync.Mutex
	plain bool // no spawn blocks: arena stores may skip the atomic barrier

	callMu    sync.Mutex
	calls     map[string]uint64
	callEdges map[interp.CallEdge]uint64
	maxDepth  int

	accesses  atomic.Uint64 // accesses of joined threads
	loopIters []atomic.Uint64
	root      []slotEntry
	threadErr atomic.Pointer[error]
}

func (m *machine) recordCall(caller, callee string, depth int) {
	m.callMu.Lock()
	m.calls[callee]++
	if caller != "" {
		m.callEdges[interp.CallEdge{Caller: caller, Callee: callee}]++
	}
	if depth > m.maxDepth {
		m.maxDepth = depth
	}
	m.callMu.Unlock()
}

// callRec is one saved activation for return unwinding.
type callRec struct {
	retIns    []instr
	retPC     int
	cur       *fcode
	chain     [][]slotEntry
	sp        int
	loopDepth int
	lockDepth int
	pendDepth int
}

// thread is the per-target-thread execution state (interp's tstate).
type thread struct {
	m        *machine
	id       int32
	out      event.Batcher // the thread's events on their way to m.hook
	free     interp.FreeList
	cur      *fcode
	chain    [][]slotEntry
	bar      *interp.Barrier
	stack    []float64
	sp       int
	iters    []uint32
	loops    []int32 // loop IDs parallel to iters
	baseLoop int     // inherited vector prefix (spawn threads)
	vec      uint64
	accesses uint64
	ret      float64
	fnStack  []string
	calls    []callRec
	pend     [][]slotEntry
	locks    []*sync.Mutex
	plain    bool
	pool     [][][]slotEntry // per-function reusable frames
	slab     []bind          // bump allocator for bindings
}

// load and store go through the arena. When the compiler proved the program
// single-threaded (no spawn blocks), stores skip the atomic barrier — an
// XCHG-class instruction that otherwise serializes every write event.
func (t *thread) load(w uint64) float64 {
	if t.plain {
		return t.m.ar.PlainLoad(w)
	}
	return t.m.ar.Load(w)
}

func (t *thread) store(w uint64, v float64) {
	if t.plain {
		t.m.ar.PlainStore(w, v)
	} else {
		t.m.ar.Store(w, v)
	}
}

// newBind bump-allocates a binding. bind is pointer-free, so a slab is one
// GC object the collector never scans; a retired slab stays alive only while
// some frame slot still points into it. Pointer identity is preserved —
// append never reallocates a slab in place.
func (t *thread) newBind(base uint64, words int, vid loc.VarID, isArr bool) *bind {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]bind, 0, 512)
	}
	t.slab = append(t.slab, bind{base: base, words: words, varID: vid, isArr: isArr})
	return &t.slab[len(t.slab)-1]
}

// Run executes the compiled program.
func (prg *Program) Run(hook event.Hook, opt interp.Options) (info *interp.RunInfo, err error) {
	m := &machine{
		prg:       prg,
		hook:      hook,
		opt:       opt,
		ar:        interp.NewArena(),
		mus:       make([]*sync.Mutex, len(prg.mus)),
		calls:     make(map[string]uint64),
		callEdges: make(map[interp.CallEdge]uint64),
		loopIters: make([]atomic.Uint64, prg.nloops),
		root:      make([]slotEntry, prg.main.frameSize),
		plain:     len(prg.spawns) == 0,
	}
	for i := range m.mus {
		m.mus[i] = new(sync.Mutex)
	}
	t := &thread{
		m:       m,
		out:     event.NewBatcher(hook, opt.Timestamps),
		free:    interp.FreeList{},
		cur:     prg.main,
		chain:   [][]slotEntry{m.root},
		stack:   make([]float64, prg.main.maxStack+1),
		fnStack: []string{"main"},
		plain:   m.plain,
	}
	m.recordCall("", "main", 1)

	defer func() {
		if r := recover(); r != nil {
			if re, ok := interp.AsRuntimeError(r); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	defer t.out.Flush() // on the error unwind too
	t.exec(prg.main)
	if e := m.threadErr.Load(); e != nil {
		return nil, *e
	}

	info = &interp.RunInfo{
		Accesses:  m.accesses.Load() + t.accesses,
		LoopIters: make(map[prog.LoopID]uint64),
		Vars:      make(map[string]float64),
		Calls:     m.calls,
		CallEdges: m.callEdges,
	}
	info.MaxCallDepth = m.maxDepth
	for i := range m.loopIters {
		if n := m.loopIters[i].Load(); n > 0 {
			id := prog.LoopID(i)
			info.LoopIters[id] = n
			l := prg.src.Meta.Loop(id)
			info.LoopRecords = append(info.LoopRecords, dep.LoopRecord{
				Begin: l.Begin, End: l.End, Iterations: n,
			})
		}
	}
	sort.Slice(info.LoopRecords, func(i, j int) bool {
		return info.LoopRecords[i].Begin < info.LoopRecords[j].Begin
	})
	for slot, name := range prg.main.names {
		if e := m.root[slot]; e.b != nil && !e.b.isArr {
			info.Vars[name] = m.ar.Load(e.b.base)
		}
	}
	m.ar.Recycle()
	return info, nil
}

func (t *thread) fail(format string, args ...any) {
	panic(interp.RuntimeError{Msg: fmt.Sprintf(format, args...)})
}

func (t *thread) push(v float64) {
	t.stack[t.sp] = v
	t.sp++
}

func (t *thread) pop() float64 {
	t.sp--
	return t.stack[t.sp]
}

// ensure grows the value stack so the next activation's peak fits without
// per-push checks.
func (t *thread) ensure(maxStack int) {
	if need := t.sp + maxStack + 1; need > len(t.stack) {
		ns := make([]float64, need+64)
		copy(ns, t.stack)
		t.stack = ns
	}
}

// emitHook builds one access in the thread's event buffer — the slow half of
// interp.tstate.emit, including the yield decision's position. The caller
// has already counted the access (Reads/Writes only) and checked the hook
// is non-nil, so the nil-hook path costs one increment inline in the
// dispatch loop instead of a call. The event template fields (location,
// context, flags) come straight off the emitting instruction.
func (t *thread) emitHook(kind event.Kind, w uint64, vid loc.VarID, fl event.Flags, i *instr) {
	if y := t.m.opt.YieldEvery; y > 0 && t.accesses%uint64(y) == uint64(t.id)%uint64(y) {
		runtime.Gosched()
	}
	a := t.out.Next()
	a.Addr = interp.AddrOf(w)
	a.TS = t.out.TS
	a.IterVec = t.vec
	a.Loc = i.ln
	a.Var = vid
	a.CtxID = i.ctx
	a.Thread = t.id
	a.Kind = kind
	a.Flags = fl
	t.out.Done()
}

// resolve returns the first live binding for a compiled reference — interp's
// frame-chain lookup without the maps. The innermost candidate is inlined in
// the ref and nearly always hits; the walk over outer scopes lives in
// resolveRest so this fast path stays within the inliner's budget.
func (t *thread) resolve(r *ref) *bind {
	if r.d0 >= 0 {
		if b := t.chain[r.d0][r.s0].b; b != nil {
			return b
		}
	}
	return t.resolveRest(r)
}

func (t *thread) resolveRest(r *ref) *bind {
	for _, c := range r.rest {
		if b := t.chain[c.depth][c.slot].b; b != nil {
			return b
		}
	}
	return nil
}

// resolveIn is resolve against an arbitrary chain (the caller's, for the
// aliased-parameter check at return).
func resolveIn(chain [][]slotEntry, r *ref) *bind {
	if r.d0 >= 0 {
		if b := chain[r.d0][r.s0].b; b != nil {
			return b
		}
	}
	for _, c := range r.rest {
		if b := chain[c.depth][c.slot].b; b != nil {
			return b
		}
	}
	return nil
}

// failScalar and failArray are the cold tails of scalarBind/arrayBind,
// split out so the bind checks inline into the dispatch loop.
func (t *thread) failScalar(r *ref, b *bind) {
	if b == nil {
		t.fail("undefined variable %q", r.name)
	}
	t.fail("variable %q is an array", r.name)
}

func (t *thread) failArray(r *ref, b *bind) {
	if b == nil {
		t.fail("undefined array %q", r.name)
	}
	t.fail("variable %q is a scalar", r.name)
}

func (t *thread) scalarBind(r *ref) *bind {
	b := t.resolve(r)
	if b == nil || b.isArr {
		t.failScalar(r, b)
	}
	return b
}

func (t *thread) arrayBind(r *ref) *bind {
	b := t.resolve(r)
	if b == nil || !b.isArr {
		t.failArray(r, b)
	}
	return b
}

// setVec repacks the iteration vector after a counter change.
func (t *thread) setVec() { t.vec = event.PackIterVec(t.iters) }

// incrIter bumps the innermost iteration counter. The innermost counter is
// the low 16 bits of the packed vector, so the common case is a plain
// increment; a full repack only happens when the 16-bit field wraps.
func (t *thread) incrIter() {
	n := len(t.iters) - 1
	t.iters[n]++
	if uint16(t.iters[n]) != 0 {
		t.vec++
	} else {
		t.setVec()
	}
}

// unwindLoops pops loop levels above depth, crediting each loop its
// innermost counter — what interp's early-return path does via
// popLoop+loopIters.Add on the way out.
func (t *thread) unwindLoops(depth int) {
	for len(t.iters) > depth {
		n := t.iters[len(t.iters)-1]
		id := t.loops[len(t.loops)-1]
		t.iters = t.iters[:len(t.iters)-1]
		t.loops = t.loops[:len(t.loops)-1]
		t.m.loopIters[id].Add(uint64(n))
	}
	t.setVec()
}

func (t *thread) unwindLocks(depth int) {
	for len(t.locks) > depth {
		mu := t.locks[len(t.locks)-1]
		t.locks = t.locks[:len(t.locks)-1]
		t.out.Release(event.SyncUnlock, mu)
		mu.Unlock()
	}
}

// doReturn unwinds one activation: credit loops, drop locks, release the
// frame's locals (sorted name order, aliased parameter arrays skipped via a
// live caller-chain lookup — both interp rules), restore the caller and push
// the return value.
func (t *thread) doReturn() ([]instr, int) {
	rec := t.calls[len(t.calls)-1]
	t.calls = t.calls[:len(t.calls)-1]
	t.unwindLoops(rec.loopDepth)
	t.unwindLocks(rec.lockDepth)
	t.pend = t.pend[:rec.pendDepth]
	fr := t.chain[0]
	for _, slot := range t.cur.release {
		e := fr[slot]
		if e.b == nil {
			continue
		}
		if e.b.isArr && e.aliasRef >= 0 &&
			resolveIn(rec.chain, &t.m.prg.refs[e.aliasRef]) == e.b {
			continue
		}
		t.free.Release(e.b.base, e.b.words)
	}
	// The frame is dead once unwound (by-reference aliases point at caller
	// bindings; spawn blocks join before any enclosing function returns), so
	// recycle it for the next activation of the same function.
	if idx := t.cur.idx; idx >= 0 && t.pool != nil {
		for s := range fr {
			fr[s] = slotEntry{aliasRef: -1}
		}
		t.pool[idx] = append(t.pool[idx], fr)
	}
	t.fnStack = t.fnStack[:len(t.fnStack)-1]
	t.cur = rec.cur
	t.chain = rec.chain
	t.sp = rec.sp
	t.push(t.ret)
	return rec.retIns, rec.retPC
}

// exec is the dispatch loop. The value stack and its pointer live in locals
// (synced with the thread only at call boundaries) so the hot ops compile to
// indexed loads and stores on a local slice instead of pointer-chasing
// through the thread struct on every push.
func (t *thread) exec(fc *fcode) {
	m := t.m
	prg := m.prg
	ins := fc.ins
	pc := 0
	stack := t.stack
	sp := t.sp
	for {
		i := &ins[pc]
		pc++
		switch i.op {
		case opEnd:
			if len(t.calls) == 0 {
				t.sp = sp
				return
			}
			t.sp = sp
			ins, pc = t.doReturn()
			stack, sp = t.stack, t.sp

		case opConst:
			stack[sp] = i.f
			sp++

		case opTid:
			stack[sp] = float64(t.id)
			sp++

		case opLen:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			stack[sp] = float64(b.words)
			sp++

		case opLoad:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			v := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			stack[sp] = v
			sp++

		case opBindScalar:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			stack[sp] = float64(b.base)
			stack[sp+1] = float64(b.varID)
			sp += 2

		case opBindArr:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			stack[sp] = float64(b.base)
			stack[sp+1] = float64(b.words)
			stack[sp+2] = float64(b.varID)
			sp += 3

		case opIdxCheck:
			idx := int(stack[sp-1])
			vid := stack[sp-2]
			words := int(stack[sp-3])
			base := uint64(stack[sp-4])
			if idx < 0 || idx >= words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, words, prg.refs[i.a].name, i.ln)
			}
			stack[sp-4] = float64(base + uint64(idx))
			stack[sp-3] = vid
			sp -= 2

		case opIdxLoad:
			idx := int(stack[sp-1])
			vid := loc.VarID(stack[sp-2])
			words := int(stack[sp-3])
			base := uint64(stack[sp-4])
			if idx < 0 || idx >= words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, words, prg.refs[i.a].name, i.ln)
			}
			w := base + uint64(idx)
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			stack[sp-4] = v
			sp -= 3

		case opIdxCheckLoad:
			idx := int(stack[sp-1])
			vid := stack[sp-2]
			words := int(stack[sp-3])
			base := uint64(stack[sp-4])
			if idx < 0 || idx >= words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, words, prg.refs[i.a].name, i.ln)
			}
			w := base + uint64(idx)
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, loc.VarID(vid), i.fl, i)
			}
			stack[sp-4] = float64(w)
			stack[sp-3] = vid
			stack[sp-2] = v
			sp--

		case opBindLoad:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			v := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			stack[sp] = float64(b.base)
			stack[sp+1] = float64(b.varID)
			stack[sp+2] = v
			sp += 3

		case opLoadWKeep:
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			stack[sp] = v
			sp++

		case opLoadWPop:
			vid := loc.VarID(stack[sp-1])
			w := uint64(stack[sp-2])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			stack[sp-2] = v
			sp--

		case opStoreW:
			v := stack[sp-1]
			vid := loc.VarID(stack[sp-2])
			w := uint64(stack[sp-3])
			sp -= 3
			t.store(w, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, w, vid, i.fl, i)
			}

		case opStoreWKeep:
			v := stack[sp-1]
			sp--
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			t.store(w, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, w, vid, i.fl, i)
			}

		case opBinStore:
			r := stack[sp-1]
			l := stack[sp-2]
			op := minilang.BinOp(i.a)
			var v float64
			if op == minilang.OpAdd {
				v = l + r
			} else if op == minilang.OpMul {
				v = l * r
			} else if op == minilang.OpSub {
				v = l - r
			} else {
				v = t.apply(op, l, r)
			}
			vid := loc.VarID(stack[sp-3])
			w := uint64(stack[sp-4])
			sp -= 4
			t.store(w, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, w, vid, i.fl, i)
			}

		case opStoreC:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			t.store(b.base, i.f)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, b.base, b.varID, i.fl, i)
			}

		case opBin:
			r := stack[sp-1]
			l := stack[sp-2]
			sp--
			op := minilang.BinOp(i.a)
			if op == minilang.OpAdd {
				stack[sp-1] = l + r
			} else if op == minilang.OpMul {
				stack[sp-1] = l * r
			} else if op == minilang.OpSub {
				stack[sp-1] = l - r
			} else {
				stack[sp-1] = t.apply(op, l, r)
			}

		case opBinC:
			l := stack[sp-1]
			op := minilang.BinOp(i.a)
			if op == minilang.OpAdd {
				stack[sp-1] = l + i.f
			} else if op == minilang.OpMul {
				stack[sp-1] = l * i.f
			} else if op == minilang.OpMod && int64(i.f) != 0 {
				stack[sp-1] = float64(int64(l) % int64(i.f))
			} else if op == minilang.OpSub {
				stack[sp-1] = l - i.f
			} else {
				stack[sp-1] = t.apply(op, l, i.f)
			}

		case opNeg:
			stack[sp-1] = -stack[sp-1]

		case opNot:
			stack[sp-1] = boolTo(stack[sp-1] == 0)

		case opToBool:
			stack[sp-1] = boolTo(stack[sp-1] != 0)

		case opAndCheck:
			sp--
			if stack[sp] == 0 {
				stack[sp] = 0
				sp++
				pc = int(i.a)
			}

		case opOrCheck:
			sp--
			if stack[sp] != 0 {
				stack[sp] = 1
				sp++
				pc = int(i.a)
			}

		case opJmp:
			pc = int(i.a)

		case opJz:
			sp--
			if stack[sp] == 0 {
				pc = int(i.a)
			}

		case opGeJmp:
			to := stack[sp-1]
			cur := stack[sp-2]
			sp -= 2
			if cur >= to {
				pc = int(i.a)
			}

		case opHeadC:
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			if v >= i.f {
				pc = int(i.a)
			}

		case opHeadLen:
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			r := &prg.refs[i.b]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			if v >= float64(b.words) {
				pc = int(i.a)
			}

		case opHeadVar:
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			r := &prg.refs[i.b]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			to := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl2, i)
			}
			if v >= to {
				pc = int(i.a)
			}

		case opReduceVar:
			// x ⊕= y in one dispatch: Read x (reduction), Read y (plain),
			// Write x (reduction) — the operator's own failure (division by
			// zero) fires between the reads and the write, like the unfused
			// opBinStore would.
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			l := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			yr := &prg.refs[i.b]
			yb := t.resolve(yr)
			if yb == nil || yb.isArr {
				t.failScalar(yr, yb)
			}
			rv := t.load(yb.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, yb.base, yb.varID, i.fl2, i)
			}
			op := minilang.BinOp(i.f)
			var v float64
			if op == minilang.OpAdd {
				v = l + rv
			} else if op == minilang.OpMul {
				v = l * rv
			} else {
				v = t.apply(op, l, rv)
			}
			t.store(b.base, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, b.base, b.varID, i.fl, i)
			}

		case opIncrC:
			t.incrIter()
			w := uint64(stack[sp-2])
			vid := loc.VarID(stack[sp-1])
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, vid, i.fl, i)
			}
			t.store(w, v+i.f)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, w, vid, i.fl, i)
			}
			pc = int(i.a)

		case opIdxLoadVar:
			// Same order as the unfused opBindArr/opLoad/opIdxLoad: array
			// resolution can fail before the index variable's Read fires, and
			// the bounds check fires between the two Reads.
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			ir := &prg.refs[i.b]
			ib := t.resolve(ir)
			if ib == nil || ib.isArr {
				t.failScalar(ir, ib)
			}
			iv := t.load(ib.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, ib.base, ib.varID, i.fl, i)
			}
			idx := int(iv)
			if idx < 0 || idx >= b.words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, b.words, r.name, i.ln)
			}
			w := b.base + uint64(idx)
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, b.varID, i.fl, i)
			}
			stack[sp] = v
			sp++

		case opIdxAddrVar:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			ir := &prg.refs[i.b]
			ib := t.resolve(ir)
			if ib == nil || ib.isArr {
				t.failScalar(ir, ib)
			}
			iv := t.load(ib.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, ib.base, ib.varID, i.fl, i)
			}
			idx := int(iv)
			if idx < 0 || idx >= b.words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, b.words, r.name, i.ln)
			}
			stack[sp] = float64(b.base + uint64(idx))
			stack[sp+1] = float64(b.varID)
			sp += 2

		case opLoadBinC:
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			l := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			op := minilang.BinOp(i.b)
			if op == minilang.OpAdd {
				stack[sp] = l + i.f
			} else if op == minilang.OpSub {
				stack[sp] = l - i.f
			} else if op == minilang.OpMul {
				stack[sp] = l * i.f
			} else if op == minilang.OpMod && int64(i.f) != 0 {
				stack[sp] = float64(int64(l) % int64(i.f))
			} else {
				stack[sp] = t.apply(op, l, i.f)
			}
			sp++

		case opBinCJz:
			l := stack[sp-1]
			sp--
			op := minilang.BinOp(i.b)
			var v float64
			if op == minilang.OpEq {
				v = boolTo(l == i.f)
			} else if op == minilang.OpLt {
				v = boolTo(l < i.f)
			} else if op == minilang.OpGt {
				v = boolTo(l > i.f)
			} else {
				v = t.apply(op, l, i.f)
			}
			if v == 0 {
				pc = int(i.a)
			}

		case opIdxLoadVC:
			// arr[i ⊕ c]: same failure order as the unfused chain — array
			// resolution, index-variable resolution, index Read, operator
			// (apply can fail on div-by-zero), bounds check, element Read.
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || !b.isArr {
				t.failArray(r, b)
			}
			ir := &prg.refs[i.b]
			ib := t.resolve(ir)
			if ib == nil || ib.isArr {
				t.failScalar(ir, ib)
			}
			iv := t.load(ib.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, ib.base, ib.varID, i.fl, i)
			}
			op := minilang.BinOp(i.op2)
			if op == minilang.OpAdd {
				iv += i.f
			} else if op == minilang.OpSub {
				iv -= i.f
			} else if op == minilang.OpMul {
				iv *= i.f
			} else if op == minilang.OpMod && int64(i.f) != 0 {
				iv = float64(int64(iv) % int64(i.f))
			} else {
				iv = t.apply(op, iv, i.f)
			}
			idx := int(iv)
			if idx < 0 || idx >= b.words {
				t.fail("index %d out of range [0,%d) for %q at %v",
					idx, b.words, r.name, i.ln)
			}
			w := b.base + uint64(idx)
			v := t.load(w)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, w, b.varID, i.fl, i)
			}
			stack[sp] = v
			sp++

		case opReduceC:
			// x ⊕= c in one dispatch: Read x, operator (modulo/division by a
			// zero constant fails between Read and Write), Write x.
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			l := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			op := minilang.BinOp(i.b)
			var v float64
			if op == minilang.OpAdd {
				v = l + i.f
			} else if op == minilang.OpMul {
				v = l * i.f
			} else if op == minilang.OpSub {
				v = l - i.f
			} else {
				v = t.apply(op, l, i.f)
			}
			t.store(b.base, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, b.base, b.varID, i.fl, i)
			}

		case opReduceVC:
			// x ⊕= y ⊕2 c: Read x (reduction), Read y (plain), inner then
			// outer operator (either may fail), Write x (reduction).
			r := &prg.refs[i.a]
			b := t.resolve(r)
			if b == nil || b.isArr {
				t.failScalar(r, b)
			}
			l := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			yr := &prg.refs[i.b]
			yb := t.resolve(yr)
			if yb == nil || yb.isArr {
				t.failScalar(yr, yb)
			}
			rv := t.load(yb.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, yb.base, yb.varID, i.fl2, i)
			}
			inner := minilang.BinOp(i.op2)
			if inner == minilang.OpAdd {
				rv += i.f
			} else if inner == minilang.OpSub {
				rv -= i.f
			} else if inner == minilang.OpMul {
				rv *= i.f
			} else {
				rv = t.apply(inner, rv, i.f)
			}
			outer := minilang.BinOp(i.vid)
			var v float64
			if outer == minilang.OpAdd {
				v = l + rv
			} else if outer == minilang.OpMul {
				v = l * rv
			} else {
				v = t.apply(outer, l, rv)
			}
			t.store(b.base, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, b.base, b.varID, i.fl, i)
			}

		case opBuiltin:
			if i.b == 2 {
				sp--
				stack[sp-1] = builtin2(i.a, stack[sp-1], stack[sp])
			} else {
				stack[sp-1] = builtin1(i.a, stack[sp-1])
			}

		case opPop:
			sp--

		case opPop2:
			sp -= 2

		case opDecl:
			e := &t.chain[0][i.a]
			if e.b == nil || e.b.isArr {
				e.b = t.newBind(m.ar.Alloc(t.free, 1), 1, i.vid, false)
				e.aliasRef = -1
			}
			stack[sp] = float64(e.b.base)
			stack[sp+1] = float64(e.b.varID)
			sp += 2

		case opDeclC:
			e := &t.chain[0][i.a]
			if e.b == nil || e.b.isArr {
				e.b = t.newBind(m.ar.Alloc(t.free, 1), 1, i.vid, false)
				e.aliasRef = -1
			}
			t.store(e.b.base, i.f)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, e.b.base, e.b.varID, i.fl, i)
			}

		case opDeclArr:
			sp--
			size := int(stack[sp])
			if size <= 0 {
				t.fail("array %q size %d", prg.strs[i.b], size)
			}
			e := &t.chain[0][i.a]
			if e.b != nil && e.b.isArr && e.b.words == size {
				break // reuse the existing allocation
			}
			e.b = t.newBind(m.ar.Alloc(t.free, size), size, i.vid, true)
			e.aliasRef = -1

		case opFree:
			r := &prg.refs[i.a]
			var e *slotEntry
			if r.d0 >= 0 {
				if ent := &t.chain[r.d0][r.s0]; ent.b != nil {
					e = ent
				}
			}
			if e == nil {
				for _, c := range r.rest {
					if ent := &t.chain[c.depth][c.slot]; ent.b != nil {
						e = ent
						break
					}
				}
			}
			if e == nil {
				t.fail("free of undefined %q", r.name)
			}
			b := e.b
			for w := 0; w < b.words; w++ {
				if m.hook != nil {
					t.emitHook(event.Remove, b.base+uint64(w), b.varID, i.fl, i)
				}
			}
			t.free.Release(b.base, b.words)
			e.b = nil
			e.aliasRef = -1

		case opPushLoop:
			t.iters = append(t.iters, 0)
			t.loops = append(t.loops, i.a)
			// Entering a loop shifts every tracked counter one depth
			// outward and zeroes the new innermost 16-bit field.
			t.vec <<= 16

		case opIterIncr:
			t.incrIter()

		case opSetIterPeek:
			k := uint32(stack[sp-1])
			t.iters[len(t.iters)-1] = k
			t.vec = t.vec&^0xffff | uint64(uint16(k))

		case opAddOne:
			stack[sp-1]++

		case opEndLoop:
			n := t.iters[len(t.iters)-1]
			t.iters = t.iters[:len(t.iters)-1]
			t.loops = t.loops[:len(t.loops)-1]
			t.setVec()
			m.loopIters[i.a].Add(uint64(n))

		case opEndLoopW:
			sp--
			n := uint64(stack[sp])
			t.iters = t.iters[:len(t.iters)-1]
			t.loops = t.loops[:len(t.loops)-1]
			t.setVec()
			m.loopIters[i.a].Add(n)

		case opCallNew:
			callee := prg.funcs[i.a]
			if t.pool == nil {
				t.pool = make([][][]slotEntry, len(prg.funcs))
			}
			var fr []slotEntry
			if fp := t.pool[i.a]; len(fp) > 0 {
				// Frames return to the pool pre-reset at doReturn.
				fr = fp[len(fp)-1]
				t.pool[i.a] = fp[:len(fp)-1]
			} else {
				fr = make([]slotEntry, callee.frameSize)
				for s := range fr {
					fr[s].aliasRef = -1
				}
			}
			t.pend = append(t.pend, fr)
			caller := t.fnStack[len(t.fnStack)-1]
			t.fnStack = append(t.fnStack, callee.name)
			m.recordCall(caller, callee.name, len(t.fnStack))

		case opArgScalar:
			sp--
			v := stack[sp]
			b := t.newBind(m.ar.Alloc(t.free, 1), 1, i.vid, false)
			t.pend[len(t.pend)-1][i.b] = slotEntry{b: b, aliasRef: -1}
			t.store(b.base, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, b.base, b.varID, i.fl, i)
			}

		case opArgVar:
			r := &prg.refs[i.a]
			if b := t.resolve(r); b != nil && b.isArr {
				// Pass by reference; remember how to re-resolve the caller's
				// name for the aliasing check at return.
				t.pend[len(t.pend)-1][i.b] = slotEntry{b: b, aliasRef: i.a}
				break
			}
			b := t.scalarBind(r)
			v := t.load(b.base)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Read, b.base, b.varID, i.fl, i)
			}
			nb := t.newBind(m.ar.Alloc(t.free, 1), 1, i.vid, false)
			t.pend[len(t.pend)-1][i.b] = slotEntry{b: nb, aliasRef: -1}
			t.store(nb.base, v)
			t.accesses++
			if m.hook != nil {
				t.emitHook(event.Write, nb.base, nb.varID, i.fl, i)
			}

		case opInvoke:
			callee := prg.funcs[i.a]
			fr := t.pend[len(t.pend)-1]
			t.calls = append(t.calls, callRec{
				retIns:    ins,
				retPC:     pc,
				cur:       t.cur,
				chain:     t.chain,
				sp:        sp,
				loopDepth: len(t.iters),
				lockDepth: len(t.locks),
				pendDepth: len(t.pend) - 1,
			})
			t.pend = t.pend[:len(t.pend)-1]
			t.cur = callee
			t.chain = [][]slotEntry{fr, m.root}
			t.sp = sp
			t.ensure(callee.maxStack)
			stack = t.stack
			t.ret = 0
			ins = callee.ins
			pc = 0

		case opRet:
			sp--
			t.ret = stack[sp]
			if len(t.calls) == 0 {
				t.unwindLoops(t.baseLoop)
				t.unwindLocks(0)
				t.sp = sp
				return
			}
			t.sp = sp
			ins, pc = t.doReturn()
			stack, sp = t.stack, t.sp

		case opSpawn:
			t.spawn(prg.spawns[i.a])

		case opLock:
			mu := m.mus[i.a]
			mu.Lock()
			t.out.Acquire(event.SyncLock, mu)
			t.locks = append(t.locks, mu)

		case opUnlock:
			t.unwindLocks(len(t.locks) - 1)

		case opBarrier:
			if t.bar == nil {
				t.fail("barrier outside spawn")
			}
			t.out.Release(event.SyncArrive, nil)
			t.bar.Wait()
			t.out.Acquire(event.SyncPass, nil)

		case opFail:
			panic(interp.RuntimeError{Msg: prg.strs[i.a]})

		default:
			t.fail("unknown opcode %d", i.op)
		}
	}
}

// spawn runs a compiled Spawn block on its thread count and joins —
// interp.execSpawn with compiled bodies.
func (t *thread) spawn(sc *scode) {
	if t.bar != nil {
		t.fail("nested spawn")
	}
	interp.CheckSpawn(sc.threads)
	bar := interp.NewBarrier(sc.threads)
	frees := make([]interp.FreeList, sc.threads)
	var wg sync.WaitGroup
	t.out.Release(event.SyncFork, nil)
	for tid := 0; tid < sc.threads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			fr := make([]slotEntry, sc.fc.frameSize)
			for s := range fr {
				fr[s].aliasRef = -1
			}
			ts := &thread{
				m:        t.m,
				id:       tid,
				out:      t.out.Child(tid),
				free:     interp.FreeList{},
				cur:      sc.fc,
				chain:    append([][]slotEntry{fr}, t.chain...),
				bar:      bar,
				stack:    make([]float64, sc.fc.maxStack+1),
				iters:    append([]uint32(nil), t.iters...),
				loops:    append([]int32(nil), t.loops...),
				baseLoop: len(t.iters),
				vec:      t.vec,
				fnStack:  append([]string(nil), t.fnStack...),
			}
			defer func() {
				ts.out.Release(event.SyncExit, nil) // on the error unwind too
				frees[tid] = ts.free
				t.m.accesses.Add(ts.accesses)
				if r := recover(); r != nil {
					if re, ok := interp.AsRuntimeError(r); ok {
						e := error(re)
						t.m.threadErr.CompareAndSwap(nil, &e)
						bar.Abort()
						return
					}
					panic(r)
				}
			}()
			ts.exec(sc.fc)
		}(int32(tid))
	}
	wg.Wait()
	t.out.Acquire(event.SyncJoin, nil)
	t.free.Adopt(frees...)
	if e := t.m.threadErr.Load(); e != nil {
		panic(interp.RuntimeError{Msg: (*e).Error()})
	}
}

// apply computes a non-short-circuit binary operation — interp.apply.
func (t *thread) apply(op minilang.BinOp, l, r float64) float64 {
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

func builtin1(id int32, x float64) float64 {
	switch id {
	case 0:
		return math.Sqrt(x)
	case 1:
		return math.Abs(x)
	case 2:
		return math.Floor(x)
	case 3:
		return math.Ceil(x)
	case 4:
		return math.Sin(x)
	case 5:
		return math.Cos(x)
	case 6:
		return math.Exp(x)
	case 7:
		return math.Log(x)
	}
	return 0
}

func builtin2(id int32, x, y float64) float64 {
	switch id {
	case 8:
		return math.Pow(x, y)
	case 9:
		return math.Min(x, y)
	case 10:
		return math.Max(x, y)
	}
	return 0
}

func boolTo(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
