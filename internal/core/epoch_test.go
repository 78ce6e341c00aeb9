package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

// deltaLog collects epoch-delta extractions; OnEpochDelta runs on worker
// goroutines, so the log is mutex-guarded.
type deltaLog struct {
	mu     sync.Mutex
	deltas []*EpochDelta
}

func (l *deltaLog) add(d *EpochDelta) {
	l.mu.Lock()
	l.deltas = append(l.deltas, d)
	l.mu.Unlock()
}

// foldDeltas unions every logged delta (and per-loop delta) into one set per
// table, the way a watch subscriber folds the frames it receives.
func (l *deltaLog) fold() (*dep.Set, map[prog.LoopID]*dep.Set) {
	l.mu.Lock()
	defer l.mu.Unlock()
	deps := dep.NewSet()
	loops := make(map[prog.LoopID]*dep.Set)
	for _, d := range l.deltas {
		deps.Merge(d.Deps)
		for id, ks := range d.Loops {
			if loops[id] == nil {
				loops[id] = dep.NewSet()
			}
			loops[id].Merge(ks)
		}
	}
	return deps, loops
}

// encoded renders every logged delta's dependence set, keyed by epoch and
// worker (workers deliver concurrently, so log order means nothing).
func (l *deltaLog) encoded(t *testing.T) map[[2]int]string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[[2]int]string, len(l.deltas))
	for _, d := range l.deltas {
		out[[2]int{int(d.Epoch), d.Worker}] = string(encodeSet(t, d.Deps))
	}
	return out
}

// encodeSet renders a set with a fixed table so results byte-compare.
func encodeSet(t *testing.T, s *dep.Set) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := dep.Encode(&buf, s, loc.NewTable(), nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEpochDeltaEquivalence is the live observatory's core invariant, run
// over every pipeline kind and both an exact and a lossy store: cut an epoch
// every few hundred events, then fold every extracted delta plus the final
// remainder — the result must encode byte-identical to the run's own final
// profile, dependences and per-loop carried keys alike.
func TestEpochDeltaEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, kind := range []string{"serial", "parallel", "mt"} {
				for _, backend := range []string{"perfect", "signature"} {
					label := fmt.Sprintf("%s/%s/%s", s.name, kind, backend)
					log := &deltaLog{}
					cfg := Config{
						Backend:      backend,
						Meta:         s.meta,
						OnEpochDelta: log.add,
					}
					switch kind {
					case "parallel":
						cfg.Mode, cfg.Workers, cfg.QueueCap = ModeParallel, 3, 64
					case "mt":
						cfg.Mode, cfg.Workers, cfg.QueueCap = ModeMT, 2, 256
					}
					p := mustNew(t, cfg)
					var epoch uint32
					for i, a := range s.evs {
						if i > 0 && i%300 == 0 {
							epoch++
							p.EpochMark(epoch)
						}
						p.Access(a)
					}
					epoch++
					p.EpochMark(epoch)
					res := p.Flush()

					folded, foldedLoops := log.fold()
					rem := dep.NewSet()
					res.Deps.ExtractDelta(rem)
					folded.Merge(rem)
					for id, ks := range res.Carried {
						out := dep.NewSet()
						if ks.ExtractDelta(out) > 0 {
							if foldedLoops[id] == nil {
								foldedLoops[id] = dep.NewSet()
							}
							foldedLoops[id].Merge(out)
						}
						out.Release()
					}

					if want, got := encodeSet(t, res.Deps), encodeSet(t, folded); !bytes.Equal(want, got) {
						t.Errorf("%s: folded deltas (%d deps) differ from final profile (%d deps)",
							label, folded.Unique(), res.Deps.Unique())
					}
					if folded.Instances() != res.Deps.Instances() {
						t.Errorf("%s: folded instances %d, final %d", label, folded.Instances(), res.Deps.Instances())
					}
					for id, ks := range res.Carried {
						if ks.Unique() == 0 {
							continue
						}
						fl := foldedLoops[id]
						if fl == nil {
							t.Errorf("%s: loop %d carried keys never shipped in a delta", label, id)
							continue
						}
						if want, got := encodeSet(t, ks), encodeSet(t, fl); !bytes.Equal(want, got) {
							t.Errorf("%s: loop %d folded carried keys differ from final", label, id)
						}
					}
				}
			}
		})
	}
}

// TestEpochDeltaBounds: a pipeline with a delta sink keeps bounds, and its
// epoch deltas carry each worker's per-variable address interval, covering
// exactly the addresses the stream touched.
func TestEpochDeltaBounds(t *testing.T) {
	s := equivSuite()[0] // carried-raw: addresses 0x1000..0x1000+63*8
	log := &deltaLog{}
	p := mustNew(t, Config{Backend: "perfect", Meta: s.meta, OnEpochDelta: log.add})
	for _, a := range s.evs {
		p.Access(a)
	}
	p.EpochMark(1)
	p.Flush()

	log.mu.Lock()
	defer log.mu.Unlock()
	if len(log.deltas) != 1 {
		t.Fatalf("%d deltas, want 1", len(log.deltas))
	}
	bs := log.deltas[0].Bounds
	if len(bs) == 0 {
		t.Fatal("delta carries no bounds")
	}
	var lo, hi uint64
	for i, b := range bs {
		if i == 0 || b.Lo < lo {
			lo = b.Lo
		}
		if b.Hi > hi {
			hi = b.Hi
		}
	}
	if lo != 0x1000 || hi != 0x1000+63*8 {
		t.Fatalf("bounds cover [%#x, %#x], want [0x1000, %#x]", lo, hi, 0x1000+63*8)
	}
}

// TestEpochMarkWithoutCallback: marks on a pipeline with no OnEpochDelta sink
// are a no-op, not a leak or a panic.
func TestEpochMarkWithoutCallback(t *testing.T) {
	s := equivSuite()[0]
	for _, kind := range []string{"serial", "parallel", "mt"} {
		cfg := Config{Backend: "perfect", Meta: s.meta}
		switch kind {
		case "parallel":
			cfg.Mode, cfg.Workers = ModeParallel, 2
		case "mt":
			cfg.Mode, cfg.Workers = ModeMT, 2
		}
		p := mustNew(t, cfg)
		for i, a := range s.evs {
			if i%100 == 0 {
				p.EpochMark(uint32(i/100) + 1)
			}
			p.Access(a)
		}
		res := p.Flush()
		if res.Deps.Unique() == 0 {
			t.Errorf("%s: marks without a callback broke profiling", kind)
		}
	}
}
