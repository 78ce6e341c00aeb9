package core

// The epoch clock: live observatory support (ROADMAP item 4). A session's
// stream is cut into epochs by event.EpochMark records — injected by the
// daemon's ticker or embedded in the trace by the client — and at each mark
// every worker extracts an epoch-delta from its engine: the dependences whose
// aggregates advanced since the previous mark, as a self-contained dep.Set
// (delta counts, current flags and distance bounds). Extraction rides the
// worker's own goroutine at a chunk boundary, so the pipeline never pauses;
// the union of all deltas plus the final remainder folds back to the exact
// end-of-run profile (dep.ExtractDelta's monotone-fold guarantee), which is
// what lets a watch subscriber reconstruct the precise final profile from the
// frames it received.

import (
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

// VarBounds is the observed address interval of one variable — the
// provenance index behind "which dependences touch address range [lo,hi]".
type VarBounds struct {
	Var    loc.VarID
	Lo, Hi uint64 // inclusive
}

// EpochDelta is one worker's extraction at an epoch boundary.
type EpochDelta struct {
	// Epoch is the mark that closed this delta; instances it covers were
	// observed between the previous mark and this one.
	Epoch uint32
	// Worker identifies the extracting worker.
	Worker int
	// Deps holds the dependences whose aggregates advanced: Count is the
	// advance, flags and distance bounds are current, and each entry carries
	// its first-observed epoch stamp.
	Deps *dep.Set
	// Loops holds, per loop with changes, the carried-key advances (same
	// delta semantics over the per-loop aggregate tables). Nil when no loop
	// aggregate moved.
	Loops map[prog.LoopID]*dep.Set
	// Bounds is a snapshot of the worker's per-variable address bounds, which
	// an engine keeps whenever its pipeline has a delta sink (makeEngines).
	Bounds []VarBounds
}

// varBound is the engine-internal bounds cell, indexed by VarID.
type varBound struct {
	lo, hi uint64
	seen   bool
}

func (e *Engine) noteBounds(v loc.VarID, addr uint64) {
	if int(v) >= len(e.bounds) {
		nb := make([]varBound, int(v)+1)
		copy(nb, e.bounds)
		e.bounds = nb
	}
	b := &e.bounds[v]
	if !b.seen {
		b.lo, b.hi, b.seen = addr, addr, true
		return
	}
	if addr < b.lo {
		b.lo = addr
	}
	if addr > b.hi {
		b.hi = addr
	}
}

// VarBoundsSnapshot returns the observed address interval of every tracked
// variable; nil when tracking is off or nothing was seen.
func (e *Engine) VarBoundsSnapshot() []VarBounds {
	var out []VarBounds
	for v := range e.bounds {
		if b := &e.bounds[v]; b.seen {
			out = append(out, VarBounds{Var: loc.VarID(v), Lo: b.lo, Hi: b.hi})
		}
	}
	return out
}

// ExtractEpochDelta drains everything unreported from the engine's dependence
// set and per-loop aggregates into a fresh EpochDelta closing epoch `mark`,
// and stamps dependences first observed from now on with mark. Single
// extraction owner per engine (the worker goroutine, or the serial caller).
func (e *Engine) ExtractEpochDelta(mark uint32) *EpochDelta {
	d := &EpochDelta{Epoch: mark, Deps: dep.NewSet()}
	e.deps.ExtractDelta(d.Deps)
	e.deps.SetEpoch(mark)
	e.epoch = mark
	for id, agg := range e.loops {
		out := dep.NewSet()
		if agg.keys.ExtractDelta(out) == 0 {
			out.Release()
		} else {
			if d.Loops == nil {
				d.Loops = make(map[prog.LoopID]*dep.Set)
			}
			d.Loops[id] = out
		}
		agg.keys.SetEpoch(mark)
	}
	d.Bounds = e.VarBoundsSnapshot()
	return d
}

// EpochMark implements Profiler for the serial profiler: extraction is
// inline, like everything else in serial mode.
func (s *Serial) EpochMark(mark uint32) {
	if s.onDelta == nil {
		return
	}
	s.onDelta(s.eng.ExtractEpochDelta(mark))
}

// EpochMark implements Profiler for the parallel (sequential-target)
// profiler: an EpochMark control record is pushed behind every worker's
// pending accesses — the same pattern as the flush sentinel — so each worker
// cuts its delta at exactly the stream position the producer had reached. Extraction
// then runs on the worker goroutines; the producer does not wait.
func (p *Parallel) EpochMark(mark uint32) {
	p.pr.epochMark(mark)
}

// EpochMark implements Profiler for the MT profiler: the mark is pushed
// through each worker's MPSC ring (multi-producer safe, so a ticker goroutine
// may call it concurrently with target threads). Workers cut their deltas at
// their current drain position; instances pushed concurrently land on one
// side or the other, which the delta-union guarantee is indifferent to.
func (m *MT) EpochMark(mark uint32) {
	for _, q := range m.rings {
		q.Push(event.Access{Addr: uint64(mark), Kind: event.EpochMark})
	}
}

// epochMark broadcasts an EpochMark control record to every worker, behind
// each worker's pending accesses.
func (pr *producer) epochMark(mark uint32) {
	for w := range pr.open {
		pr.pushControl(w, event.Access{Addr: uint64(mark), Kind: event.EpochMark}, true)
	}
}
