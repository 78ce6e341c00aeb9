// Package prog holds static program metadata shared between the
// instrumentation substrate and the profiler: the loop table and the
// registry of static loop contexts.
//
// A loop context is the static stack of loops enclosing a program point
// (outermost first). Contexts are created once while the target program's IR
// is built and referenced from every access event by a small integer ID, so
// the hot instrumentation path never allocates. The detection engine uses
// the context registry together with each access's packed iteration vector
// to classify dependences as loop-carried or loop-independent, which is what
// parallelism discovery (paper §VII-A) consumes.
package prog

import (
	"fmt"
	"math/bits"

	"ddprof/internal/loc"
)

// LoopID identifies a static loop in the target program.
type LoopID uint16

// NoLoop is the LoopID returned when a dependence is loop-independent.
const NoLoop = LoopID(0xFFFF)

// Loop describes one static loop.
type Loop struct {
	ID    LoopID
	Name  string        // diagnostic name, e.g. "bt.x_solve.1"
	Begin loc.SourceLoc // BGN line
	End   loc.SourceLoc // END line
	// OMP records the ground truth used by the Table II experiment: whether
	// the (hand-)parallelized version of the benchmark annotates this loop
	// as a parallel worksharing loop.
	OMP bool
}

// Meta is the static metadata of one target program.
type Meta struct {
	loops []Loop
	// ctxs[id] is the loop stack of context id, outermost first. Context 0
	// is the empty stack (code outside any loop).
	ctxs [][]LoopID
	// pushed interns contexts: the one formed by pushing a loop onto a parent.
	pushed map[ctxPush]uint32
}

type ctxPush struct {
	parent uint32
	loop   LoopID
}

// NewMeta returns metadata with the empty context preallocated.
func NewMeta() *Meta {
	return &Meta{ctxs: [][]LoopID{nil}, pushed: make(map[ctxPush]uint32)}
}

// AddLoop registers a loop and returns its ID.
func (m *Meta) AddLoop(l Loop) LoopID {
	id := LoopID(len(m.loops))
	l.ID = id
	m.loops = append(m.loops, l)
	return id
}

// Loop returns the descriptor for id.
func (m *Meta) Loop(id LoopID) Loop {
	if int(id) >= len(m.loops) {
		return Loop{ID: NoLoop, Name: fmt.Sprintf("unknown(%d)", id)}
	}
	return m.loops[id]
}

// Loops returns all registered loops.
func (m *Meta) Loops() []Loop { return m.loops }

// SetLoopEnd records the END location of a loop after its body is built.
func (m *Meta) SetLoopEnd(id LoopID, end loc.SourceLoc) {
	if int(id) < len(m.loops) {
		m.loops[id].End = end
	}
}

// PushCtx returns the context formed by pushing loop l onto context parent.
// Contexts are interned: pushing the same loop onto the same parent twice
// returns the same ID. Not safe for concurrent use; IR construction is
// single-threaded.
func (m *Meta) PushCtx(parent uint32, l LoopID) uint32 {
	if int(parent) >= len(m.ctxs) {
		parent = 0 // an unknown parent has the empty stack (Stack)
	}
	key := ctxPush{parent, l}
	if id, ok := m.pushed[key]; ok {
		return id
	}
	ps := m.ctxs[parent]
	ns := make([]LoopID, len(ps)+1)
	copy(ns, ps)
	ns[len(ps)] = l
	m.ctxs = append(m.ctxs, ns)
	id := uint32(len(m.ctxs) - 1)
	m.pushed[key] = id
	return id
}

// Stack returns the loop stack of a context, outermost first. The returned
// slice must not be modified.
func (m *Meta) Stack(ctx uint32) []LoopID {
	if int(ctx) >= len(m.ctxs) {
		return nil
	}
	return m.ctxs[ctx]
}

// NumCtxs returns the number of interned contexts including the empty one.
func (m *Meta) NumCtxs() int { return len(m.ctxs) }

// CarriedLoop determines at which loop, if any, a dependence between two
// dynamic accesses is carried. srcCtx/sinkCtx are the accesses' static
// contexts; srcIter/sinkIter their packed iteration vectors (innermost
// counter in the low 16 bits — see event.PackIterVec).
//
// The dependence is carried at the *outermost* common enclosing loop whose
// iteration counters differ (the outermost non-zero entry of the distance
// vector). If all common counters are equal the dependence is
// loop-independent and NoLoop is returned.
func (m *Meta) CarriedLoop(srcCtx, sinkCtx uint32, srcIter, sinkIter uint64) LoopID {
	l, _ := m.CarriedLoopDist(srcCtx, sinkCtx, srcIter, sinkIter)
	return l
}

// CarriedLoopDist additionally returns the dependence distance: the
// iteration gap at the carried loop (Alchemist-style dependence-distance
// profiling). The distance is 0 for loop-independent dependences and is
// computed modulo 2^16 (the packed counter width). It is its two halves
// composed: CommonDepth, which depends on the contexts alone, and CarriedAt,
// the per-instance compare.
func (m *Meta) CarriedLoopDist(srcCtx, sinkCtx uint32, srcIter, sinkIter uint64) (LoopID, uint32) {
	return m.CarriedAt(srcCtx, sinkCtx, m.CommonDepth(srcCtx, sinkCtx), srcIter, sinkIter)
}

// SameCtx is CommonDepth's answer for two accesses in one static context.
const SameCtx = -1

// CommonDepth is the static half of CarriedLoopDist: the number of loops,
// outermost first, the loop stacks of the two contexts share, or SameCtx
// when they are one context. A dependence can be carried only at one of
// those loops, so a depth of 0 means it never is.
func (m *Meta) CommonDepth(srcCtx, sinkCtx uint32) int {
	if srcCtx == sinkCtx {
		return SameCtx
	}
	ss, ks := m.Stack(srcCtx), m.Stack(sinkCtx)
	common := min(len(ss), len(ks))
	for i := 0; i < common; i++ {
		if ss[i] != ks[i] {
			return i
		}
	}
	return common
}

// CarriedAt is the per-instance half of CarriedLoopDist: given common =
// CommonDepth(srcCtx, sinkCtx), the loop and distance at which an instance
// with these iteration vectors is carried. Neither a depth of 0 nor two equal
// vectors in one context reads a loop stack.
func (m *Meta) CarriedAt(srcCtx, sinkCtx uint32, common int, srcIter, sinkIter uint64) (LoopID, uint32) {
	if common == SameCtx {
		// Both accesses share a static context, so the stacks are identical
		// and the whole prefix is common. The outermost differing counter is
		// the highest differing 16-bit lane of the packed vectors, found
		// with one XOR instead of a per-depth extract-and-compare walk.
		x := srcIter ^ sinkIter
		if x == 0 {
			return NoLoop, 0
		}
		ss := m.Stack(srcCtx)
		if len(ss) == 0 {
			return NoLoop, 0
		}
		// Differing lanes above the tracked stack depth read as equal (see
		// iterAt); the scan starts at the deepest in-range depth.
		for d := min((bits.Len64(x)-1)>>4, len(ss)-1); d >= 0; d-- {
			if si, ki := iterAt(srcIter, d), iterAt(sinkIter, d); si != ki {
				return ss[len(ss)-1-d], distance(si, ki)
			}
		}
		return NoLoop, 0
	}
	if common <= 0 {
		return NoLoop, 0
	}
	ss, ks := m.Stack(srcCtx), m.Stack(sinkCtx)
	for i := 0; i < common; i++ {
		// Depth from innermost within each stack.
		si, ki := iterAt(srcIter, len(ss)-1-i), iterAt(sinkIter, len(ks)-1-i)
		if si != ki {
			return ss[i], distance(si, ki)
		}
	}
	return NoLoop, 0
}

// distance is the gap between two 16-bit iteration counters.
func distance(si, ki uint16) uint32 {
	d := int32(ki) - int32(si)
	if d < 0 {
		d = -d
	}
	return uint32(d)
}

// iterAt mirrors event.IterAt; duplicated to keep prog free of higher-level
// imports. Depths beyond the packed window read as zero, which makes
// counters at untracked depths compare equal — a conservative
// (loop-independent) default.
func iterAt(vec uint64, d int) uint16 {
	if d < 0 || d > 3 {
		return 0
	}
	return uint16(vec >> (16 * d))
}
