package prog

import (
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

func TestAddLoopAndLookup(t *testing.T) {
	m := NewMeta()
	id := m.AddLoop(Loop{Name: "outer", Begin: loc.Pack(1, 10), OMP: true})
	if id != 0 {
		t.Fatalf("first loop ID = %d, want 0", id)
	}
	l := m.Loop(id)
	if l.Name != "outer" || !l.OMP || l.ID != id {
		t.Errorf("Loop() = %+v", l)
	}
	m.SetLoopEnd(id, loc.Pack(1, 20))
	if m.Loop(id).End != loc.Pack(1, 20) {
		t.Error("SetLoopEnd did not stick")
	}
	if got := m.Loop(999); got.ID != NoLoop {
		t.Error("unknown loop should return NoLoop descriptor")
	}
	if len(m.Loops()) != 1 {
		t.Error("Loops() length wrong")
	}
}

func TestCtxInterning(t *testing.T) {
	m := NewMeta()
	a := m.AddLoop(Loop{Name: "a"})
	b := m.AddLoop(Loop{Name: "b"})

	ca := m.PushCtx(0, a)
	if ca == 0 {
		t.Fatal("pushed context must not be the empty context")
	}
	if m.PushCtx(0, a) != ca {
		t.Error("same push must intern to same ID")
	}
	cab := m.PushCtx(ca, b)
	cb := m.PushCtx(0, b)
	if cab == cb {
		t.Error("[a b] and [b] must be distinct contexts")
	}
	if got := m.Stack(cab); len(got) != 2 || got[0] != a || got[1] != b {
		t.Errorf("Stack(cab) = %v", got)
	}
	if m.Stack(0) != nil {
		t.Error("empty context must have nil stack")
	}
	if m.Stack(9999) != nil {
		t.Error("unknown context must have nil stack")
	}
	if m.NumCtxs() != 4 { // empty, [a], [a b], [b]
		t.Errorf("NumCtxs = %d, want 4", m.NumCtxs())
	}
}

func TestCarriedLoopSingle(t *testing.T) {
	m := NewMeta()
	a := m.AddLoop(Loop{Name: "a"})
	ca := m.PushCtx(0, a)

	// Same iteration: loop-independent.
	v5 := event.PackIterVec([]uint32{5})
	if got, _ := m.CarriedLoopDist(ca, ca, v5, v5); got != NoLoop {
		t.Errorf("same iteration should be independent, got %d", got)
	}
	// Different iterations: carried at a.
	v6 := event.PackIterVec([]uint32{6})
	if got, _ := m.CarriedLoopDist(ca, ca, v5, v6); got != a {
		t.Errorf("cross-iteration dep should be carried at %d, got %d", a, got)
	}
}

func TestCarriedLoopNest(t *testing.T) {
	m := NewMeta()
	outer := m.AddLoop(Loop{Name: "outer"})
	inner := m.AddLoop(Loop{Name: "inner"})
	co := m.PushCtx(0, outer)
	coi := m.PushCtx(co, inner)

	// Same outer iteration, different inner: carried at inner.
	src := event.PackIterVec([]uint32{3, 7})
	sink := event.PackIterVec([]uint32{3, 8})
	if got, _ := m.CarriedLoopDist(coi, coi, src, sink); got != inner {
		t.Errorf("want carried at inner, got %d", got)
	}
	// Different outer iteration: carried at outer (outermost differing).
	sink = event.PackIterVec([]uint32{4, 7})
	if got, _ := m.CarriedLoopDist(coi, coi, src, sink); got != outer {
		t.Errorf("want carried at outer, got %d", got)
	}
	// Both differ: still the outer loop carries it.
	sink = event.PackIterVec([]uint32{4, 9})
	if got, _ := m.CarriedLoopDist(coi, coi, src, sink); got != outer {
		t.Errorf("want carried at outer, got %d", got)
	}
}

func TestCarriedLoopMixedDepths(t *testing.T) {
	m := NewMeta()
	outer := m.AddLoop(Loop{Name: "outer"})
	inner := m.AddLoop(Loop{Name: "inner"})
	co := m.PushCtx(0, outer)
	coi := m.PushCtx(co, inner)

	// Source directly in outer (iter 3), sink inside inner of outer iter 3:
	// common loop is outer, same iteration -> independent.
	src := event.PackIterVec([]uint32{3})
	sink := event.PackIterVec([]uint32{3, 5})
	if got, _ := m.CarriedLoopDist(co, coi, src, sink); got != NoLoop {
		t.Errorf("same outer iteration should be independent, got %d", got)
	}
	// Different outer iterations -> carried at outer.
	sink = event.PackIterVec([]uint32{4, 0})
	if got, _ := m.CarriedLoopDist(co, coi, src, sink); got != outer {
		t.Errorf("want outer, got %d", got)
	}
}

func TestCarriedLoopDisjointContexts(t *testing.T) {
	m := NewMeta()
	a := m.AddLoop(Loop{Name: "a"})
	b := m.AddLoop(Loop{Name: "b"})
	ca := m.PushCtx(0, a)
	cb := m.PushCtx(0, b)
	// No common enclosing loop: never carried.
	if got, _ := m.CarriedLoopDist(ca, cb, event.PackIterVec([]uint32{1}), event.PackIterVec([]uint32{9})); got != NoLoop {
		t.Errorf("disjoint loops cannot carry, got %d", got)
	}
	// Outside any loop at all.
	if got, _ := m.CarriedLoopDist(0, 0, 0, 0); got != NoLoop {
		t.Errorf("no loops at all, got %d", got)
	}
}

func TestCarriedLoopSiblingInnerLoops(t *testing.T) {
	// for i { for j1 {...}; for j2 {...} } — a dep from j1's body to j2's
	// body within the same i iteration is independent w.r.t. i.
	m := NewMeta()
	i := m.AddLoop(Loop{Name: "i"})
	j1 := m.AddLoop(Loop{Name: "j1"})
	j2 := m.AddLoop(Loop{Name: "j2"})
	ci := m.PushCtx(0, i)
	cij1 := m.PushCtx(ci, j1)
	cij2 := m.PushCtx(ci, j2)

	src := event.PackIterVec([]uint32{2, 5})  // i=2, j1=5
	sink := event.PackIterVec([]uint32{2, 0}) // i=2, j2=0
	if got, _ := m.CarriedLoopDist(cij1, cij2, src, sink); got != NoLoop {
		t.Errorf("same i iteration across sibling loops should be independent, got %d", got)
	}
	sink = event.PackIterVec([]uint32{3, 0}) // i=3
	if got, _ := m.CarriedLoopDist(cij1, cij2, src, sink); got != i {
		t.Errorf("want carried at i, got %d", got)
	}
}
