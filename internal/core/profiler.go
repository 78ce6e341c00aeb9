package core

import (
	"sync"
	"sync/atomic"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/queue"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// Profiler is the profiler of every mode: the pipeline of §IV–V, and in
// ModeSerial the §III profiler, which is that pipeline with no rings and its
// one worker's engine driven on the caller's thread. AccessBatch is the
// ingest seam: the executors hand over each target thread's private batches,
// remote sessions their decoded trace batches; Access is its one-event form.
// Flush drains the pipeline and returns the merged result. In ModeSerial,
// Access and AccessBatch must be called from a single goroutine; the
// pipelined modes take concurrent callers, one per target thread.
//
// ModeMT profiles multi-threaded targets (§V) and ModeParallel sequential
// ones (§IV): a sequential target is a one-thread §V target, whose ring
// claims are then uncontended, with the race check as configured. Every
// target thread hands its events over concurrently, in thread-private
// batches (event.Batcher): when its buffer fills and before every release
// operation of the target — unlock, barrier arrive, spawn, thread exit. A
// batch goes into the owning workers' lock-free MPSC rings as one run per
// ring — one claim, one publication (spread) — not the paper's push per
// access from inside the target's lock region (Figure 4) that made its MT
// profiling slow (Figure 6). The target's threads route by the fixed ownerOf
// rule as they copy a batch in, so they share nothing but the rings; the
// workers read the runs in place.
//
// Ordering invariant: if access a happens-before access b on the same
// address, a's positions are claimed in the owner's ring before b's — a's
// thread flushed before the release that orders the two, and ring claims are
// FIFO — and within one thread claims follow program order. Only unordered
// pairs can arrive either way; those the sync-epoch stamps expose
// (Engine.build). A freed address changes threads at a join only
// (interp.FreeList), an edge too.
type Profiler struct {
	workers   []*worker
	rings     []*ring // rings[i] is worker i's transport; none in ModeSerial
	wMask     uint64  // len(rings)-1 when that is a power of two, else 0 (see ownerOf)
	raceCheck bool    // refuse stamps past event.MaxTS (refuseStamps)
	m         *telemetry.Pipeline
	wg        sync.WaitGroup
	flushed   bool
	// ranges and rangeElems count the data ranges the producers expanded
	// (RunStats.Ranges, RangeElements): one bump per range, rare enough to
	// share.
	ranges, rangeElems atomic.Uint64
}

// spreadRows is spread's scratch: the segment's cnt[w] events for ring w are
// listed, by index, from idx[w*BatchSize].
type spreadRows struct {
	cnt []uint16
	idx []uint16
}

// rowsPool holds spreadRows between segments, for every Profiler in the
// process: a pool inside Profiler would keep the whole profiler reachable
// after its Flush, as the runtime lists each pool in use until two
// collections later.
var rowsPool sync.Pool

// getRows returns zeroed counts and rows for nw rings.
func getRows(nw int) *spreadRows {
	r, _ := rowsPool.Get().(*spreadRows)
	if r == nil || cap(r.cnt) < nw {
		return &spreadRows{cnt: make([]uint16, nw), idx: make([]uint16, nw*event.BatchSize)}
	}
	r.cnt = r.cnt[:nw]
	clear(r.cnt)
	return r
}

// New builds the profiler cfg.Mode selects — the one constructor every
// embedder goes through — and validates the configuration in one place.
// ModeSerial builds one worker and starts no goroutine; the pipelined modes
// build Workers rings and workers and start the workers. ModeMT always checks
// races: the stamps it needs are already being collected.
func New(cfg Config) (*Profiler, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeMT {
		cfg.RaceCheck = true
	}
	engs, err := makeEngines(cfg)
	if err != nil {
		return nil, err
	}
	p := &Profiler{m: cfg.Metrics, raceCheck: cfg.RaceCheck}
	for i, eng := range engs {
		w := &worker{id: i, eng: eng, m: cfg.Metrics}
		if cfg.Mode != ModeSerial {
			w.in = &ring{q: queue.NewMPSC[event.Access](cfg.QueueCap)}
			if cfg.LockBased {
				w.in.mu = new(sync.Mutex)
			}
			p.rings = append(p.rings, w.in)
		}
		p.workers = append(p.workers, w)
	}
	if p.rings != nil {
		p.wMask = powerOfTwoMask(len(p.rings))
		for _, w := range p.workers {
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				w.run()
			}()
		}
	}
	return p, nil
}

// Access is the one-event batch. Safe for concurrent use in the pipelined
// modes, as AccessBatch is.
func (p *Profiler) Access(a event.Access) { p.AccessBatch([]event.Access{a}, nil) }

// AccessBatch ingests one batch: accesses holds point events plus RangeRef
// slots whose Addr indexes into ranges — the event.Chunk layout. Only data
// and Remove point kinds (plus RangeRef) may appear: neither the executors
// nor the DDT2 decoder produce any other. The batch goes on in segments of
// up to BatchSize point events (spread); with ranges, segments also end at
// RangeRef slots, which expand there, element by element in order
// (Range.At), into segments of their own (expandRange), so on every store a
// range is its points. The resulting profile is byte-identical to the
// equivalent sequence of Access calls.
func (p *Profiler) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for len(accesses) > 0 {
		n := min(len(accesses), event.BatchSize)
		if len(ranges) > 0 {
			n = 0
			for n < len(accesses) && n < event.BatchSize && accesses[n].Kind != event.RangeRef {
				n++
			}
			if n == 0 {
				p.expandRange(&ranges[accesses[0].Addr])
				accesses = accesses[1:]
				continue
			}
		}
		p.spread(accesses[:n])
		accesses = accesses[n:]
	}
}

// expandRange counts r and expands its elements, in order, into BatchSize
// segments and spreads those: a range costs what its points in a batch would.
func (p *Profiler) expandRange(r *event.Range) {
	if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
		p.ranges.Add(1)
		p.rangeElems.Add(uint64(r.Count))
		if p.m != nil {
			p.m.Ranges.Inc()
			p.m.RangeElements.Add(uint64(r.Count))
		}
	}
	var buf [event.BatchSize]event.Access
	for j := uint32(0); j < r.Count; {
		n := 0
		for ; n < len(buf) && j < r.Count; n, j = n+1, j+1 {
			buf[n] = r.At(j)
		}
		p.spread(buf[:n])
	}
}

// spread hands on up to BatchSize events of one thread, in order. Nothing of
// the segment is profiled before it is checked whole (refuseRangeRef,
// refuseStamps). In ModeSerial the segment then goes to the one engine's run
// kernel on the caller's thread (runInline). Otherwise one pass lists each
// event under its owner (a row per ring, so the pass costs the same at any
// worker count), then ring by ring one put copies the ring's events in. One
// ring at a time: see MPSC.Claim. The rows come from a pool, so a segment
// zeroes nothing but the counts.
func (p *Profiler) spread(seg []event.Access) {
	if p.rings == nil {
		p.runInline(seg)
		return
	}
	nw := len(p.rings)
	rows := getRows(nw)
	cnt, idx := rows.cnt, rows.idx
	stamps := uint64(0)
	for i := range seg {
		a := &seg[i]
		if a.Kind == event.RangeRef {
			refuseRangeRef()
		}
		o := ownerOf(a.Addr, nw, p.wMask)
		idx[o*event.BatchSize+int(cnt[o])] = uint16(i)
		cnt[o]++
		stamps |= a.TS
	}
	if stamps > event.MaxTS && p.raceCheck {
		refuseStamps()
	}
	for w, n := range cnt {
		if n > 0 {
			p.rings[w].put(seg, idx[w*event.BatchSize:][:n])
		}
	}
	rowsPool.Put(rows)
}

// runInline is ModeSerial's worker: the checked segment goes to the engine's
// run kernel in one call, on the caller's thread, where Algorithm 1 runs
// beside the target in §III. The check reads stamps only when they are
// judged: a profiler that does not race-check never compares them.
func (p *Profiler) runInline(seg []event.Access) {
	for i := range seg {
		if seg[i].Kind == event.RangeRef {
			refuseRangeRef()
		}
	}
	if p.raceCheck {
		stamps := uint64(0)
		for i := range seg {
			stamps |= seg[i].TS
		}
		if stamps > event.MaxTS {
			refuseStamps()
		}
	}
	w := p.workers[0]
	w.process(seg)
	if w.m != nil {
		w.publishEvents()
	}
}

// Flush drains the pipeline and merges. It must be called after every target
// thread has finished (the executors join them first), so no AccessBatch call
// can race with the flush sentinels. A second Flush panics.
func (p *Profiler) Flush() *Result {
	if p.flushed {
		panic(errDoubleFlush)
	}
	p.flushed = true
	for _, r := range p.rings {
		r.q.Push(event.Access{Kind: event.Flush})
	}
	p.wg.Wait()
	return p.merge(RunStats{Ranges: p.ranges.Load(), RangeElements: p.rangeElems.Load()})
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
	// DupCollapsed is always 0: nothing collapses reads on the way to the
	// engines, whose own fold of adjacent exact duplicates
	// (Engine.ProcessRun) shows only as fewer instance-cache probes. The
	// field stays only because the frozen bench/ harness reads it; it goes
	// with ROADMAP item 1(c).
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
	// Workers is the number of profiling worker threads. ModeSerial ignores
	// it: its one worker runs on the caller's thread.
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
