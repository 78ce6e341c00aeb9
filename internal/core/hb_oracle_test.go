package core

import (
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// The happens-before oracle: vector clocks over the executors' sync-event tap
// (event.SyncTap), kept beside the profiler under test in the same run, so
// both see the same schedule. It answers which dependence keys join two
// accesses that no chain of the target's own synchronisation orders — the
// only ones the §V-B race rule may flag.

// vclock is one immutable version of a thread's vector clock; component i
// belongs to clock index i (0 the main thread, tid+1 a spawned one).
type vclock struct{ c []uint32 }

func (v *vclock) at(i int) uint32 {
	if i >= v.len() {
		return 0
	}
	return v.c[i]
}

// join returns the component-wise maximum, bump a copy advanced at index i.
func (v *vclock) join(w *vclock) *vclock {
	out := &vclock{}
	for i := 0; i < v.len() || i < w.len(); i++ {
		out.c = append(out.c, max(v.at(i), w.at(i)))
	}
	return out
}

func (v *vclock) len() int {
	if v == nil {
		return 0
	}
	return len(v.c)
}

func (v *vclock) bump(i int) *vclock {
	out := v.join(nil)
	for len(out.c) <= i {
		out.c = append(out.c, 0)
	}
	out.c[i]++
	return out
}

// hbThread is the oracle's view of one target thread. Its events reach the
// hook in batches that can straddle an acquire, so the clock of the next
// event handed over (tag) trails the thread's clock (cur) by the pending
// acquires, each at its position in the thread's buffer.
type hbThread struct {
	cur, tag *vclock
	pend     []hbMark
	bars     int // barrier generations arrived at
}

type hbMark struct {
	at int
	vc *vclock
}

// hbAccess is one distinct way an address was accessed.
type hbAccess struct {
	idx    int // clock index
	thread int32
	kind   event.Kind
	loc    loc.SourceLoc
	v      loc.VarID
	vc     *vclock
}

type hbOracle struct {
	*Profiler // the profiler under test: every event is forwarded, Flush is its

	mu         sync.Mutex
	threads    map[int]*hbThread
	inSpawn    bool
	fork, join *vclock
	locks      map[any]*vclock
	bar        map[int]*vclock // by generation, of the running spawn
	seen       map[uint64]map[hbAccess]struct{}
}

func newHBOracle(p *Profiler) *hbOracle {
	return &hbOracle{Profiler: p, threads: map[int]*hbThread{}, locks: map[any]*vclock{},
		seen: map[uint64]map[hbAccess]struct{}{}}
}

// index maps an event's or operation's thread ID to its clock index: while
// a spawn runs only spawned threads are active, and ID 0 is the first of
// them, not the (blocked) main thread.
func (o *hbOracle) index(thread int32) int {
	if o.inSpawn {
		return int(thread) + 1
	}
	return 0
}

func (o *hbOracle) Access(a event.Access) {
	o.note([]event.Access{a})
	o.Profiler.Access(a)
}

func (o *hbOracle) AccessBatch(accesses []event.Access, ranges []event.Range) {
	o.note(accesses)
	o.Profiler.AccessBatch(accesses, ranges)
}

// note tags one thread's batch with the clocks its events happened under.
func (o *hbOracle) note(evs []event.Access) {
	o.mu.Lock()
	defer o.mu.Unlock()
	idx := o.index(evs[0].Thread)
	t := o.threads[idx]
	for i := range evs {
		for len(t.pend) > 0 && t.pend[0].at == i {
			t.tag, t.pend = t.pend[0].vc, t.pend[1:]
		}
		a := &evs[i]
		if a.Kind != event.Read && a.Kind != event.Write {
			continue
		}
		set := o.seen[a.Addr]
		if set == nil {
			set = map[hbAccess]struct{}{}
			o.seen[a.Addr] = set
		}
		set[hbAccess{idx, a.Thread, a.Kind, a.Loc, a.Var, t.tag}] = struct{}{}
	}
	for j := range t.pend {
		t.pend[j].at -= len(evs)
	}
}

// Sync implements event.SyncTap.
func (o *hbOracle) Sync(thread int32, op event.SyncOp, obj any, buffered int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	idx := o.index(thread)
	if op == event.SyncFork || op == event.SyncJoin {
		idx = 0
	}
	t := o.threads[idx]
	// A release publishes the thread's clock and moves it on; by then the
	// thread has handed over everything, so no acquire is pending.
	release := func(into *vclock) *vclock {
		into = t.cur.join(into)
		t.cur = t.cur.bump(idx)
		t.tag, t.pend = t.cur, nil
		return into
	}
	acquire := func(from *vclock) {
		t.cur = t.cur.join(from)
		t.pend = append(t.pend, hbMark{buffered, t.cur})
	}
	switch op {
	case event.SyncStart:
		t = &hbThread{cur: o.fork.bump(idx)}
		t.tag = t.cur
		o.threads[idx] = t
	case event.SyncFork:
		o.fork, o.join, o.bar = release(nil), nil, map[int]*vclock{}
		o.inSpawn = true
	case event.SyncJoin:
		o.inSpawn = false
		acquire(o.join)
	case event.SyncExit:
		o.join = release(o.join)
	case event.SyncLock:
		acquire(o.locks[obj])
	case event.SyncUnlock:
		o.locks[obj] = release(o.locks[obj])
	case event.SyncArrive:
		o.bar[t.bars] = release(o.bar[t.bars])
		t.bars++
	case event.SyncPass:
		acquire(o.bar[t.bars-1])
	}
}

// unordered returns every dependence key some unordered pair of conflicting
// accesses from different threads could give rise to, in either order.
func (o *hbOracle) unordered() map[dep.Key]bool {
	out := map[dep.Key]bool{}
	key := func(src, snk hbAccess) {
		typ := dep.WAW
		switch {
		case snk.kind == event.Read:
			typ = dep.RAW
		case src.kind == event.Read:
			typ = dep.WAR
		}
		out[dep.Key{Type: typ, Sink: snk.loc, Src: src.loc, Var: snk.v,
			SinkThread: int16(snk.thread), SrcThread: int16(src.thread)}] = true
	}
	for _, set := range o.seen {
		accs := make([]hbAccess, 0, len(set))
		for a := range set {
			accs = append(accs, a)
		}
		for i, a := range accs {
			for _, b := range accs[i+1:] {
				if a.idx == b.idx || (a.kind == event.Read && b.kind == event.Read) ||
					a.vc.at(a.idx) <= b.vc.at(a.idx) || b.vc.at(b.idx) <= a.vc.at(b.idx) {
					continue // same thread, no conflict, or a before b, or b before a
				}
				key(a, b)
				key(b, a)
			}
		}
	}
	return out
}

// runFunc is the signature interp.Run (the reference) and vm.Run (production)
// share; the tests that hold one to the other take either.
type runFunc = func(*minilang.Program, event.Hook, interp.Options) (*interp.RunInfo, error)

// executors are the two event producers, named for failure messages.
var executors = []struct {
	name string
	run  runFunc
}{{"vm", vm.Run}, {"interp", interp.Run}}

// profileMT profiles p, executed by run with sync-epoch stamps, in a 2-worker
// MT profiler: handed the executor's batches, or one event at a time
// (perEvent), runs of one in which nothing can fold.
func profileMT(t *testing.T, run runFunc, p *minilang.Program, perEvent bool) *Result {
	m := mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect", Meta: p.Meta})
	var hook event.Hook = m
	if perEvent {
		hook = event.HookFunc(m.Access)
	}
	if _, err := run(p, hook, interp.Options{Timestamps: true}); err != nil {
		t.Fatal(err)
	}
	return m.Flush()
}

// hbCheck profiles p under the oracle and requires flagged ⊆ oracle-unordered.
// racy is how many reported dependences the oracle calls unordered.
func hbCheck(t *testing.T, exName string, run runFunc, p *minilang.Program) (flagged, racy int) {
	t.Helper()
	o := newHBOracle(mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect", Meta: p.Meta}))
	_, err := run(p, o, interp.Options{Timestamps: true})
	res := o.Flush()
	if err != nil {
		t.Fatal(err)
	}
	unordered := o.unordered()
	res.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if unordered[k] {
			racy++
		}
		if st.Reversed {
			flagged++
			if !unordered[k] {
				t.Errorf("%s/%s: %+v flagged as a race, but the target's synchronisation orders every such pair",
					p.Name, exName, k)
			}
		}
		return true
	})
	return flagged, racy
}

// TestRaceFlagsWithinHBOracle: on every pthread-style workload, under both
// executors, every flagged dependence joins accesses the oracle calls
// unordered (precision 100 %); recall against the oracle is logged
// (EXPERIMENTS.md records it per workload).
func TestRaceFlagsWithinHBOracle(t *testing.T) {
	scale := 0.1
	if testing.Short() {
		scale = 0.03
	}
	for _, w := range workloads.Starbench() {
		if w.BuildParallel == nil {
			continue
		}
		for _, ex := range executors {
			p := w.BuildParallel(workloads.Config{Scale: scale, Threads: 3})
			flagged, racy := hbCheck(t, ex.name, ex.run, p)
			t.Logf("%-14s %-6s flagged %3d of %3d oracle-unordered dependences", w.Name, ex.name, flagged, racy)
		}
	}
}

// TestRaceFlagsDeterministic: without scheduler fuzz, an unsynchronised
// shared counter is flagged in every run and its synchronised variants in
// none — flagging follows the target's synchronisation, not the schedule.
func TestRaceFlagsDeterministic(t *testing.T) {
	type block = *minilang.Block
	incr := func(b block) { b.Assign("counter", minilang.Add(minilang.V("counter"), minilang.Ci(1))) }
	program := func(name string, spawned func(b block)) *minilang.Program {
		p := minilang.New(name)
		p.MainFunc(func(b block) {
			b.Decl("counter", minilang.Ci(0))
			b.Spawn(2, spawned)
			incr(b)
		})
		return p
	}
	loop := func(body func(b block)) func(b block) {
		return func(b block) {
			b.For("i", minilang.Ci(0), minilang.Ci(40), minilang.Ci(1), minilang.LoopOpt{}, body)
		}
	}
	for _, c := range []struct {
		p     *minilang.Program
		races bool
	}{
		{program("unlocked", loop(incr)), true},
		{program("locked", loop(func(b block) { b.Lock("m", incr) })), false},
		{program("barrier-separated", func(b block) {
			b.If(minilang.Eq(minilang.Tid(), minilang.Ci(0)), incr, nil)
			b.Barrier()
			b.Decl("seen", minilang.V("counter"))
		}), false},
		{program("spawn-join-separated", loop(func(b block) { b.Decl("seen", minilang.V("counter")) })), false},
	} {
		for _, ex := range executors {
			for run := 0; run < 20; run++ {
				flagged, racy := hbCheck(t, ex.name, ex.run, c.p)
				if (flagged > 0) != c.races || (racy > 0) != c.races {
					t.Fatalf("%s/%s run %d: %d dependences flagged, %d unordered by the oracle; races expected: %v",
						c.p.Name, ex.name, run, flagged, racy, c.races)
				}
			}
		}
	}
}

// TestRecycledStorageStaysOrdered: race-free targets whose threads keep
// allocating and freeing private storage — an array per round, a call frame
// per round. A freed run is its thread's own to reuse (interp.FreeList), so
// no thread's buffered accesses can land behind a new owner's: nothing is
// flagged, no dependence joins two threads, and the batch seam profiles
// exactly like the per-event one, run after run. The free variant's 96
// dependences are the parent's (per-access pushes, one global stamp).
func TestRecycledStorageStaysOrdered(t *testing.T) {
	const frees = `func main() {
    arr out[4]
    spawn 4 {
        var acc = 0
        for round = 0; round < 400; round += 1 "rounds" {
            arr buf[8]
            for i = 0; i < 8; i += 1 "fill" {
                buf[i] = i + tid
            }
            for j = 0; j < 8; j += 1 "sum" {
                acc = acc + buf[j]
            }
            free buf
        }
        out[tid] = acc
    }
}`
	const calls = `func mix(a, b) {
    var t = a * 3 + b
    return t + 1
}
func main() {
    arr out[4]
    spawn 4 {
        var acc = 0
        for round = 0; round < 2000; round += 1 "rounds" {
            acc = acc + mix(round, tid)
        }
        out[tid] = acc
    }
}`
	for _, c := range []struct {
		name, src string
		unique    int
	}{{"frees", frees, 96}, {"calls", calls, 0}} {
		p, err := minilang.ParseProgram(c.name, c.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range executors {
			want := profileMT(t, ex.run, p, true)
			if c.unique != 0 && want.Deps.Unique() != c.unique {
				t.Errorf("%s/%s: %d dependences, want %d", c.name, ex.name, want.Deps.Unique(), c.unique)
			}
			for i := 0; i < 5; i++ {
				got := profileMT(t, ex.run, p, false)
				sameProfile(t, c.name+"/"+ex.name, want, got)
				got.Deps.Range(func(k dep.Key, st dep.Stats) bool {
					if st.Reversed || (k.Type != dep.INIT && k.SinkThread != k.SrcThread) {
						t.Errorf("%s/%s: %+v (%+v) joins two threads' private storage", c.name, ex.name, k, st)
					}
					return !t.Failed()
				})
			}
		}
	}
}
