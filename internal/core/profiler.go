package core

import (
	"ddprof/internal/dep"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"

	"ddprof/internal/event"

	// Every built-in store backend registers with the sig registry here, so
	// any Config.Backend spec resolves in any binary or daemon session.
	_ "ddprof/internal/hashtab"
	_ "ddprof/internal/shadow"
)

// Profiler is the uniform surface of all profiler variants. AccessBatch is
// the ingest seam: the executors hand over each target thread's private
// batches, remote sessions their decoded trace batches; Access is its
// one-event form. Flush drains the pipeline and returns the merged result.
// For the serial and parallel (sequential-target) profilers Access and
// AccessBatch must be called from a single goroutine; the multi-threaded-
// target profiler accepts concurrent callers.
type Profiler interface {
	Access(a event.Access)
	// AccessBatch ingests one decoded batch: accesses holds point events plus
	// RangeRef slots whose Addr indexes into ranges — the event.Chunk layout.
	// A RangeRef slot expands at its position, element by element in order
	// (Range.At), into the point path, so on every store a range is its
	// points. Only data and Remove point kinds (plus RangeRef) may appear;
	// control kinds, EpochMark included, are the caller's to handle between
	// batches. The resulting profile is byte-identical to the equivalent
	// sequence of Access calls.
	AccessBatch(accesses []event.Access, ranges []event.Range)
	// EpochMark cuts an epoch at the current stream position: each worker
	// extracts its delta and delivers it to Config.OnEpochDelta (a no-op when
	// that is nil). Marks must be monotone and, for the serial and parallel
	// profilers, come from the AccessBatch goroutine; MT takes them from any.
	EpochMark(mark uint32)
	Flush() *Result
}

// Result is the merged output of a profiling run.
type Result struct {
	// Deps is the merged dependence set.
	Deps *dep.Set
	// Loops maps static loops to their carried dependences.
	Loops map[prog.LoopID]*LoopDeps
	// Carried maps static loops to their merged carried-key tables — the
	// sets Loops summarizes. Live-observatory consumers query them ("what
	// does loop L carry") and extract the final unshipped delta remainder;
	// they share the merged storage, so Release them with the Result.
	Carried map[prog.LoopID]*dep.Set
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
	// Chunks is the number of data chunks pushed to workers (0 for serial).
	Chunks uint64
	// ControlChunks is the number of chunk pushes forced by a control event
	// (flush sentinels, epoch marks); kept apart from Chunks so
	// events-per-chunk throughput math stays honest.
	ControlChunks uint64
	// DupCollapsed is the number of consecutive duplicate reads collapsed
	// into repetition counts — by the producer before chunking (sequential
	// targets) or by the consumer while draining its ring (MT targets). The
	// collapsed accesses still count in Accesses and in every dependence
	// count.
	DupCollapsed uint64
	// DepCacheHits / DepCacheProbes report the engines' instance-cache
	// performance: a hit records a dependence instance without any map
	// operation.
	DepCacheHits   uint64
	DepCacheProbes uint64
	// Migrations is always 0: run-time redistribution is gone (EXPERIMENTS.md
	// decision record). The field stays only because the frozen bench/
	// harness reads it; it goes with ROADMAP item 2.
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
	// QueueBytes is the memory held by the pipeline queues and chunks.
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
	// Backend selects the access-history store by spec string, resolved
	// through the sig backend registry: "signature", "perfect", "shadow",
	// "hashtab:buckets=64k". Empty selects the default signature backend;
	// SlotsPerWorker sizes slot parameters the spec leaves out. A bad spec
	// fails construction with a descriptive error.
	Backend string
	// Meta enables loop-carried classification when non-nil.
	Meta *prog.Meta
	// LockBased selects mutex-protected queues instead of lock-free ones
	// (the Figure 5 ablation baseline).
	LockBased bool
	// RaceCheck enables timestamp-reversal detection (§V-B).
	RaceCheck bool
	// QueueCap is the per-worker queue capacity in chunks (sequential-target
	// mode) or accesses (MT mode). Defaults to 8 chunks / 4Ki accesses.
	QueueCap int
	// Ignored: run-time redistribution is gone (EXPERIMENTS.md decision
	// record). The field stays only because the frozen bench/ harness sets
	// it; it goes with ROADMAP item 2.
	RedistributeEvery int
	// Metrics, when non-nil, receives live pipeline telemetry (events in,
	// queue depths, chunk recycling, signature occupancy,
	// stage latency histograms). Counters are bumped at chunk granularity and
	// stage latencies sampled (one in 32 chunk pushes / worker batches) so the
	// hot path stays cheap; nil costs nothing.
	Metrics *telemetry.Pipeline
	// OnEpochDelta receives each worker's epoch-delta extraction when the
	// profiler's EpochMark is driven. Callbacks arrive on
	// worker goroutines — concurrently in parallel modes — and own the
	// delta's sets. Nil disables extraction: EpochMark becomes a no-op and
	// the epoch machinery costs nothing. Set, it also makes every engine
	// keep per-variable address bounds (two compares per data access) for
	// EpochDelta.Bounds.
	OnEpochDelta func(*EpochDelta)
}

// Serial is the single-threaded profiler of §III: the target program and
// Algorithm 1 run on the same thread. As a pipeline composition it is the
// degenerate case — one worker, no transport (Access drives the engine
// inline), and the shared merge stage producing the Result.
type Serial struct {
	pl        pipeline
	eng       *Engine
	stats     RunStats
	m         *telemetry.Pipeline
	published uint64
	onDelta   func(*EpochDelta)
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
	s := &Serial{eng: eng, m: cfg.Metrics, onDelta: cfg.OnEpochDelta}
	s.pl.m = cfg.Metrics
	s.pl.workers = []*worker{{eng: eng, m: cfg.Metrics}}
	return s, nil
}

// Access implements Profiler: the one-event batch.
func (s *Serial) Access(a event.Access) { s.AccessBatch([]event.Access{a}, nil) }

// AccessBatch implements Profiler: the whole batch drives the engine in one
// tight loop — no per-event interface dispatch — with access counting and
// telemetry publication amortized to one update per batch.
func (s *Serial) AccessBatch(accesses []event.Access, ranges []event.Range) {
	var data, rngs, relems, stamps uint64
	for i := range accesses {
		a := &accesses[i]
		stamps |= a.TS
		if a.Kind == event.RangeRef {
			r := &ranges[a.Addr]
			stamps |= r.TS
			if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
				data += uint64(r.Count)
				rngs++
				relems += uint64(r.Count)
			}
			for j := uint32(0); j < r.Count; j++ {
				s.eng.Process(r.At(j))
			}
			continue
		}
		if a.Kind == event.Read || a.Kind == event.Write {
			// A collapsed read (Rep > 0) stands for 1+Rep accesses.
			data += 1 + uint64(a.Rep)
		}
		s.eng.Process(*a)
	}
	if stamps > event.MaxTS && s.eng.raceCheck {
		refuseStamps()
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

// Flush implements Profiler.
func (s *Serial) Flush() *Result {
	s.pl.beginFlush()
	if s.m != nil {
		s.m.Events.Add(s.stats.Accesses - s.published)
		s.published = s.stats.Accesses
	}
	return s.pl.merge(s.stats, false)
}

// publishStoreTelemetry records the flush-time store gauges: the mean
// write-slot occupancy of the signatures among stores, and the summed actual
// footprint of every store regardless of backend (satisfying /metrics for
// shadow page accounting as much as for slot arrays).
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
