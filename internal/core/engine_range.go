package core

// The Engine's bulk path for compressed strided runs. A range's elements
// share every field but address and iteration vector, so the per-instruction
// work of the point path — slot packing, flag decoding, the INIT key — is
// hoisted out of the element loop, the store walk goes through the
// division-free sig.RunVisitor when the store supports it, and consecutive
// identical dependence classifications are batched into single record calls
// (the same instance redundancy the §III-B dependence merging exploits, one
// level earlier). Over any store the produced profile is element-for-element
// what Process(r.At(0)) .. Process(r.At(Count-1)) yields.

import (
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// pendObs is one batched dependence-observation lane: n pending instances of
// an identical classification, flushed when the classification changes.
type pendObs struct {
	key     pkey
	n       uint64
	carried prog.LoopID
	dist    uint32
	red     bool
	rev     bool
}

// rangeObs carries the per-range observation state: one lane per dependence
// type (the lane index is the dep.Type, so a run's steady state — the same
// static dependence firing every element — turns Count map-or-cache probes
// into one).
type rangeObs struct {
	e    *Engine
	pend [4]pendObs
}

func (o *rangeObs) observe(k pkey, carried prog.LoopID, red, rev bool, dist uint32) {
	p := &o.pend[k.t]
	if p.n > 0 && p.key == k && p.carried == carried && p.red == red && p.rev == rev && p.dist == dist {
		p.n++
		return
	}
	if p.n > 0 {
		o.e.record(p.key, p.carried, p.red, p.rev, p.dist, p.n)
	}
	*p = pendObs{key: k, n: 1, carried: carried, dist: dist, red: red, rev: rev}
}

func (o *rangeObs) flush() {
	for t := range o.pend {
		if p := &o.pend[t]; p.n > 0 {
			o.e.record(p.key, p.carried, p.red, p.rev, p.dist, p.n)
			p.n = 0
		}
	}
}

// ProcessRange runs a compressed strided run through Algorithm 1: one
// dispatch, then a tight per-address loop. Dependence records may be emitted
// in batched order rather than element order; every aggregate they feed
// (dep.Stats, the per-loop carried tables) is commutative, so the profile is
// identical to the per-element path.
func (e *Engine) ProcessRange(r *event.Range) {
	if r.Count == 0 {
		return
	}
	if r.Kind != event.Read && r.Kind != event.Write {
		if r.Kind == event.Remove {
			addr := r.Base
			for j := uint32(0); j < r.Count; j++ {
				e.store.Remove(addr)
				addr += r.Stride
			}
		}
		return
	}

	if e.trackBounds {
		e.noteBoundsRange(r.Var, r.Base, r.Stride, r.Count)
	}

	// The element template: everything but Addr/IterVec is shared. snk.Addr
	// is never read below (classification depends on location, context and
	// iteration only), so the loop advances just the iteration vector.
	snk := event.Access{
		TS: r.TS, IterVec: r.IterVec,
		Loc: r.Loc, Var: r.Var, CtxID: r.CtxID,
		Thread: r.Thread, Kind: r.Kind, Flags: r.Flags,
	}
	tmpl := e.slotFor(&snk)
	obs := rangeObs{e: e}

	if r.Kind == event.Write {
		first := initKey(r.Loc, r.Var, r.Thread)
		elem := func(j uint32, wslot, rslot sig.Slot) sig.Slot {
			snk.IterVec = r.IterVec + uint64(j)*r.IterDelta
			if wslot.Empty() {
				obs.observe(first, prog.NoLoop, false, false, 0)
			} else {
				k, ca, red, rev, d := e.classify(dep.WAW, wslot, &snk)
				obs.observe(k, ca, red, rev, d)
			}
			if !rslot.Empty() {
				k, ca, red, rev, d := e.classify(dep.WAR, rslot, &snk)
				obs.observe(k, ca, red, rev, d)
			}
			s := tmpl
			s.Iter = snk.IterVec
			return s
		}
		if e.rv == nil || !e.rv.VisitWriteRun(r.Base, r.Stride, r.Count, elem) {
			addr := r.Base
			for j := uint32(0); j < r.Count; j++ {
				wslot, _ := e.store.LookupWrite(addr)
				rslot, _ := e.store.LookupRead(addr)
				e.store.SetWrite(addr, elem(j, wslot, rslot))
				addr += r.Stride
			}
		}
	} else {
		elem := func(j uint32, wslot sig.Slot) sig.Slot {
			snk.IterVec = r.IterVec + uint64(j)*r.IterDelta
			if !wslot.Empty() {
				k, ca, red, rev, d := e.classify(dep.RAW, wslot, &snk)
				obs.observe(k, ca, red, rev, d)
			}
			s := tmpl
			s.Iter = snk.IterVec
			return s
		}
		if e.rv == nil || !e.rv.VisitReadRun(r.Base, r.Stride, r.Count, elem) {
			addr := r.Base
			for j := uint32(0); j < r.Count; j++ {
				wslot, _ := e.store.LookupWrite(addr)
				e.store.SetRead(addr, elem(j, wslot))
				addr += r.Stride
			}
		}
	}
	obs.flush()
}
