package core

import (
	"ddprof/internal/dep"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"

	"ddprof/internal/event"
)

// Profiler is the uniform surface of all profiler variants. AccessBatch is
// the ingest seam: the executors hand over each target thread's private
// batches, remote sessions their decoded trace batches; Access is its
// one-event form. Flush drains the pipeline and returns the merged result.
// The serial profiler's Access and AccessBatch must be called from a single
// goroutine; the parallel and multi-threaded-target profiler accepts
// concurrent callers, one per target thread.
type Profiler interface {
	Access(a event.Access)
	// AccessBatch ingests one decoded batch: accesses holds point events plus
	// RangeRef slots whose Addr indexes into ranges — the event.Chunk layout.
	// A RangeRef slot expands at its position, element by element in order
	// (Range.At), into the point path, so on every store a range is its
	// points. Only data and Remove point kinds (plus RangeRef) may appear;
	// control kinds are the caller's to refuse. The resulting profile is
	// byte-identical to the equivalent sequence of Access calls.
	AccessBatch(accesses []event.Access, ranges []event.Range)
	Flush() *Result
}

// Result is the merged output of a profiling run.
type Result struct {
	// Deps is the merged dependence set.
	Deps *dep.Set
	// Loops maps static loops to their carried dependences.
	Loops map[prog.LoopID]*LoopDeps
	// Stats describes the run itself.
	Stats RunStats
	// WorkerEvents lists per-worker processed access counts (parallel
	// modes), the quantity the §IV-A load-balancing discussion is about.
	WorkerEvents []uint64
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

// RunStats reports pipeline counters and memory accounting.
type RunStats struct {
	// Accesses is the number of read/write events processed.
	Accesses uint64
	// Chunks and ControlChunks are always 0: the chunk transport is gone
	// (runs are copied into rings). The fields stay only because the frozen
	// bench/ harness reads Chunks; they go with ROADMAP item 1(c).
	Chunks        uint64
	ControlChunks uint64
	// DupCollapsed is the number of consecutive duplicate reads collapsed
	// into repetition counts by the transport: the target's threads as they
	// copy a batch into the rings. The collapsed accesses still count in
	// Accesses and in every dependence count. The engine's own folds of
	// adjacent exact duplicates (Engine.ProcessRun) are exact and not
	// counted here; they show only as fewer instance-cache probes.
	DupCollapsed uint64
	// DepCacheHits / DepCacheProbes report the engines' instance-cache
	// performance: a hit records a dependence instance without any map
	// operation.
	DepCacheHits   uint64
	DepCacheProbes uint64
	// Migrations is always 0: run-time redistribution is gone (EXPERIMENTS.md
	// decision record). The field stays only because the frozen bench/
	// harness reads it; it goes with ROADMAP item 1(c).
	Migrations uint64
	// Ranges is the number of compressed strided data runs ingested (DDT2
	// wire ranges); RangeElements the accesses they
	// expanded into. Range elements count in Accesses and in every dependence
	// count like any other access.
	Ranges        uint64
	RangeElements uint64
	// StoreBytes is the actual memory held by all access-history stores.
	StoreBytes uint64
	// StoreModeledBytes is the same under the paper's 4 B/slot model.
	StoreModeledBytes uint64
	// QueueBytes is the memory held by the workers' rings.
	QueueBytes uint64
}

// Config configures a profiler. The zero value describes a serial profiler
// with default store sizing; Mode selects the variant and the remaining
// fields compose the pipeline stages.
type Config struct {
	// Mode selects the profiler variant New builds.
	Mode Mode
	// Workers is the number of profiling worker threads (parallel modes).
	Workers int
	// SlotsPerWorker is the size of the signature the profile is that of:
	// each worker indexes its words as a signature of this many slots would
	// and holds only the indices its share of the addresses reaches
	// (sig.Signature.Shard), so W workers hold SlotsPerWorker slots between
	// them when W divides it, and report what one serial signature of that
	// size reports. The paper's reference configuration is 6.25e6 slots per
	// worker × 16 workers = 1e8 slots total (§VI-B2).
	SlotsPerWorker int
	// Backend selects the access-history store (sig.OpenStore): "signature"
	// or empty, "signature:slots=N" or "perfect". SlotsPerWorker sizes a
	// signature whose spec leaves slots out. Any other spec, or a signature
	// past sig.MaxSlots, fails construction with a descriptive error.
	Backend string
	// Meta enables loop-carried classification when non-nil.
	Meta *prog.Meta
	// LockBased puts a mutex around every copy into a worker's ring and
	// every read of it (the Figure 5 ablation baseline).
	LockBased bool
	// RaceCheck enables timestamp-reversal detection (§V-B).
	RaceCheck bool
	// QueueCap is the per-worker ring capacity in accesses (ring positions),
	// rounded up to a power of two. Defaults to 4Ki.
	QueueCap int
	// Ignored: run-time redistribution is gone (EXPERIMENTS.md decision
	// record). The field stays only because the frozen bench/ harness sets
	// it; it goes with ROADMAP item 1(c).
	RedistributeEvery int
	// Metrics, when non-nil, receives live pipeline telemetry (events in,
	// dep-cache hits, queue depths, signature occupancy, store bytes).
	// Counters are bumped at batch granularity and no clock is read, so the
	// hot path stays cheap; nil costs nothing.
	Metrics *telemetry.Pipeline
}

// Serial is the single-threaded profiler of §III: the target program and
// Algorithm 1 run on the same thread. As a pipeline composition it is the
// degenerate case — one worker, no transport (AccessBatch hands each stretch
// of a batch to the engine's run kernel inline), and the shared merge stage
// producing the Result.
type Serial struct {
	pl        pipeline
	eng       *Engine
	stats     RunStats
	m         *telemetry.Pipeline
	published uint64
}

// newSerial builds the serial profiler. The whole signature budget
// (Workers×SlotsPerWorker if both set, else SlotsPerWorker) backs its single
// store.
func newSerial(cfg Config) (*Serial, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.SlotsPerWorker > 0 && cfg.Workers > 1 {
		// The whole per-worker slot budget backs the single serial store. A
		// spec with an explicit slots parameter is unaffected: explicit
		// parameters win over the SlotsPerWorker default.
		cfg.SlotsPerWorker *= cfg.Workers
	}
	engs, err := makeEngines(&cfg, 1)
	if err != nil {
		return nil, err
	}
	eng := engs[0]
	s := &Serial{eng: eng, m: cfg.Metrics}
	s.pl.m = cfg.Metrics
	s.pl.workers = []*worker{{eng: eng, m: cfg.Metrics}}
	return s, nil
}

// Access implements Profiler: the one-event batch.
func (s *Serial) Access(a event.Access) { s.AccessBatch([]event.Access{a}, nil) }

// AccessBatch implements Profiler: the batch is checked whole first
// (refuseRangeRef, refuseStamps), then each stretch of point events between
// RangeRef slots goes to the engine's run kernel in one call, and each range
// in BatchSize runs of its elements (runRange). Access counting and telemetry
// publication take one update per batch.
func (s *Serial) AccessBatch(accesses []event.Access, ranges []event.Range) {
	stamps := uint64(0)
	for i := range accesses {
		a := &accesses[i]
		stamps |= a.TS
		if a.Kind == event.RangeRef {
			if len(ranges) == 0 {
				refuseRangeRef()
			}
			stamps |= ranges[a.Addr].TS
		}
	}
	if stamps > event.MaxTS && s.eng.raceCheck {
		refuseStamps()
	}
	var data, rngs, relems uint64
	for len(accesses) > 0 {
		n := len(accesses)
		if len(ranges) > 0 {
			n = 0
			for n < len(accesses) && accesses[n].Kind != event.RangeRef {
				n++
			}
			if n == 0 {
				r := &ranges[accesses[0].Addr]
				if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
					rngs++
					relems += uint64(r.Count)
				}
				data += s.runRange(r)
				accesses = accesses[1:]
				continue
			}
		}
		data += s.eng.ProcessRun(accesses[:n])
		accesses = accesses[n:]
	}
	s.stats.Accesses += data
	s.stats.Ranges += rngs
	s.stats.RangeElements += relems
	if s.m != nil {
		if rngs > 0 {
			s.m.Ranges.Add(rngs)
			s.m.RangeElements.Add(relems)
		}
		if s.stats.Accesses-s.published >= 1024 {
			s.m.Events.Add(s.stats.Accesses - s.published)
			s.published = s.stats.Accesses
		}
	}
}

// runRange expands r's elements, in order, into BatchSize runs through the
// engine's run kernel, as MT.routeRange does into its rings: a range costs
// what its points in a batch would. It returns the data accesses they were.
func (s *Serial) runRange(r *event.Range) (data uint64) {
	var buf [event.BatchSize]event.Access
	for j := uint32(0); j < r.Count; {
		n := 0
		for ; n < len(buf) && j < r.Count; n, j = n+1, j+1 {
			buf[n] = r.At(j)
		}
		data += s.eng.ProcessRun(buf[:n])
	}
	return data
}

// Flush implements Profiler.
func (s *Serial) Flush() *Result {
	s.pl.beginFlush()
	if s.m != nil {
		s.m.Events.Add(s.stats.Accesses - s.published)
		s.published = s.stats.Accesses
	}
	return s.pl.merge(s.stats)
}

// publishStoreTelemetry records the flush-time store gauges: the mean
// write-slot occupancy of the signatures among stores, and the summed actual
// footprint of every store, signature or perfect table.
func publishStoreTelemetry(m *telemetry.Pipeline, stores ...sig.Store) {
	sum, n := 0.0, 0
	var bytes uint64
	for _, st := range stores {
		if g, ok := st.(*sig.Signature); ok {
			sum += g.Occupancy()
			n++
		}
		bytes += st.Bytes()
	}
	if n > 0 {
		m.SigOccupancyPermille.Set(int64(sum / float64(n) * 1000))
	}
	m.StoreBytes.Set(int64(bytes))
}
