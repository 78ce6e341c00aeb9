package core

import (
	"sort"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// Existence is the set-based/untyped profiling variant the paper sketches
// as future work (§VI-B): "determining only a binary value (whether a
// dependence exists or not) instead of detailed types would allow a more
// balanced workload".
//
// Because no temporal order is needed for mere existence, addresses no
// longer have to be owned by a single worker: the shared producer stage runs
// in round-robin dealing mode, which balances the workers perfectly even
// under the skewed access frequencies that defeat the modulo rule (§IV-A) —
// and brings along the producer's chunk recycling and duplicate-read
// collapse for free. Each worker records, per address, the sets of reader
// and writer lines; the merge unions them and a dependence "exists" between
// two lines if they touched a common address and at least one wrote it.
type Existence struct {
	pl pipeline
	pr producer
}

// existSink is the worker-local analysis of existence mode: line sets per
// address instead of a detection engine.
type existSink struct {
	lines map[uint64]*lineSets
}

type lineSets struct {
	readers map[loc.SourceLoc]struct{}
	writers map[loc.SourceLoc]struct{}
}

// process records one access; repetition counts are irrelevant because line
// sets are idempotent.
func (s *existSink) process(ev *event.Access) {
	if ev.Kind != event.Read && ev.Kind != event.Write {
		return
	}
	ls := s.lines[ev.Addr]
	if ls == nil {
		ls = &lineSets{
			readers: make(map[loc.SourceLoc]struct{}),
			writers: make(map[loc.SourceLoc]struct{}),
		}
		s.lines[ev.Addr] = ls
	}
	if ev.Kind == event.Write {
		ls.writers[ev.Loc] = struct{}{}
	} else {
		ls.readers[ev.Loc] = struct{}{}
	}
}

// LinePair is an unordered pair of source lines with a dependence between
// them (A < B by construction; A == B for self-dependences).
type LinePair struct {
	A, B loc.SourceLoc
}

// ExistenceResult is the untyped profile.
type ExistenceResult struct {
	// Pairs is the set of line pairs with at least one dependence.
	Pairs map[LinePair]struct{}
	// WorkerEvents lists how many accesses each worker processed — the
	// balance the round-robin distribution achieves.
	WorkerEvents []uint64
	Stats        RunStats
}

// NewExistence starts the untyped pipeline; it panics on an invalid Config.
// Workers defaults to 8. Mode, Meta, RaceCheck and the store fields are
// ignored — existence needs no access history.
func NewExistence(cfg Config) *Existence {
	cfg, err := cfg.normalize(ModeExistence)
	if err != nil {
		panic(err)
	}
	e := &Existence{}
	e.pl.m = cfg.Metrics
	trs := make([]*chunkTransport, cfg.Workers)
	for i := range trs {
		trs[i] = newChunkTransport(cfg.LockBased, cfg.QueueCap, cfg.Workers)
		e.pl.workers = append(e.pl.workers, &worker{
			id: i,
			tr: trs[i],
			ex: &existSink{lines: make(map[uint64]*lineSets)},
			m:  cfg.Metrics,
		})
	}
	e.pl.startAll()
	e.pr.init(&e.pl, trs, &cfg, true)
	return e
}

// Access implements the producer side; single-threaded like Parallel.
func (e *Existence) Access(a event.Access) { e.AccessBatch([]event.Access{a}, nil) }

// AccessBatch is the bulk seam. Lifetime and control events are dropped (line
// sets never shrink); the runs between them go to the producer as they are.
func (e *Existence) AccessBatch(accesses []event.Access, _ []event.Range) {
	lo := 0
	for i := range accesses {
		if k := accesses[i].Kind; k != event.Read && k != event.Write {
			e.pr.putBatch(accesses[lo:i], nil)
			lo = i + 1
		}
	}
	e.pr.putBatch(accesses[lo:], nil)
}

// Flush drains the pipeline and merges the per-worker line sets.
func (e *Existence) Flush() *ExistenceResult {
	e.pl.beginFlush()
	e.pr.drainFlush()
	e.pl.wg.Wait()

	// Union the per-address line sets across workers, then emit pairs.
	merged := make(map[uint64]*lineSets)
	res := &ExistenceResult{Pairs: make(map[LinePair]struct{}), Stats: e.pr.stats}
	for _, w := range e.pl.workers {
		res.WorkerEvents = append(res.WorkerEvents, w.events)
		for addr, ls := range w.ex.lines {
			m := merged[addr]
			if m == nil {
				merged[addr] = ls
				continue
			}
			for l := range ls.readers {
				m.readers[l] = struct{}{}
			}
			for l := range ls.writers {
				m.writers[l] = struct{}{}
			}
		}
	}
	for _, ls := range merged {
		for w := range ls.writers {
			for w2 := range ls.writers {
				res.Pairs[pairOf(w, w2)] = struct{}{}
			}
			for r := range ls.readers {
				res.Pairs[pairOf(w, r)] = struct{}{}
			}
		}
	}
	return res
}

func pairOf(a, b loc.SourceLoc) LinePair {
	if b < a {
		a, b = b, a
	}
	return LinePair{A: a, B: b}
}

// Imbalance summarizes a worker-event distribution as max/mean; 1.0 is a
// perfect balance.
func Imbalance(events []uint64) float64 {
	if len(events) == 0 {
		return 1
	}
	var max, sum uint64
	for _, e := range events {
		sum += e
		if e > max {
			max = e
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(events))
	return float64(max) / mean
}

// SortedPairs returns the pairs in deterministic order for reporting.
func (r *ExistenceResult) SortedPairs() []LinePair {
	out := make([]LinePair, 0, len(r.Pairs))
	for p := range r.Pairs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}
