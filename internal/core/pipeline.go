package core

// The composable pipeline layer. The paper's architecture (§IV–V) is one
// pipeline with pluggable pieces, and this file is that decomposition:
//
//	target thread(s)
//	      │ AccessBatch() (Access() is the one-event case)
//	┌─────▼──────┐  per BatchSize segment, on the target's thread: routing
//	│   spread   │  (ownerOf), duplicate-read collapse, one claimed run per
//	└─────┬──────┘  owner
//	      │ runs copied into the owners' MPSC rings
//	┌─────▼──────┐  read by its worker in place; Config.LockBased puts a
//	│    ring    │  mutex around every copy and every read (Figure 5)
//	└─────┬──────┘
//	      │ event batches
//	┌─────▼──────┐  the flush sentinel, shared backoff policy, one
//	│   worker   │  Engine each, one ProcessRun call per batch (exact
//	└─────┬──────┘  duplicate reads left by spread fold there)
//	      │ engines, counters
//	┌─────▼──────┐  dep-set merge, loop-agg union, store/queue/cache
//	│   merge    │  accounting, occupancy + queue-depth publication
//	└────────────┘
//
// MT is this composition for sequential (ModeParallel) and multi-threaded
// (ModeMT) targets alike; Serial is the degenerate one, its single engine
// driven inline, one ProcessRun call per stretch of a batch, and merged.
// New builds both; the golden fixtures in testdata/goldens.json pin their
// profiles.

import (
	"fmt"
	"runtime"
	"sync"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/queue"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// Mode selects the profiler variant a Config describes.
type Mode uint8

const (
	// ModeSerial is the single-threaded profiler of §III.
	ModeSerial Mode = iota
	// ModeParallel is the lock-free pipeline of §IV for sequential targets:
	// ModeMT's pipeline with one producing thread and Config.RaceCheck as
	// configured (Config.LockBased selects the Figure 5 ablation queues).
	ModeParallel
	// ModeMT is the pipeline of §V for multi-threaded targets: thread-private
	// batches into per-worker run rings, sync-epoch stamps, the race rule.
	ModeMT
)

func (m Mode) String() string {
	switch m {
	case ModeSerial:
		return "serial"
	case ModeParallel:
		return "parallel"
	case ModeMT:
		return "mt"
	}
	return "invalid"
}

// New builds the profiler variant selected by cfg.Mode — the one constructor
// every embedder goes through — and validates the configuration in one place.
func New(cfg Config) (Profiler, error) {
	switch cfg.Mode {
	case ModeSerial:
		return newSerial(cfg)
	case ModeParallel, ModeMT:
		return newMT(cfg)
	default:
		return nil, fmt.Errorf("core: unknown Mode %d", cfg.Mode)
	}
}

// normalize validates a Config and fills in its mode's defaults.
func (c Config) normalize() (Config, error) {
	mode := c.Mode
	if c.Workers < 0 {
		return c, fmt.Errorf("core: Workers = %d; want >= 1, or 0 for the default", c.Workers)
	}
	if c.Workers == 0 {
		c.Workers = 1
		if mode != ModeSerial {
			c.Workers = runtime.GOMAXPROCS(0)
		}
	}
	if c.QueueCap < 0 {
		return c, fmt.Errorf("core: QueueCap = %d; want >= 1 ring positions, or 0 for the default", c.QueueCap)
	}
	if c.QueueCap == 0 {
		// Default ring depth: 4Ki events (256KiB) per worker, whatever the
		// run lengths. Deeper rings only add slack the consumer never
		// catches up on, and at 64Ki events the ring outgrows the cache
		// entirely; keeping it cache-resident is worth more than extra
		// buffering. It also trims the queue memory of Figures 7 and 8.
		c.QueueCap = 1 << 12
	}
	if c.SlotsPerWorker < 0 {
		return c, fmt.Errorf("core: SlotsPerWorker = %d; want >= 1 signature slots, or 0 for the default", c.SlotsPerWorker)
	}
	if c.Meta != nil && c.Meta.NumCtxs() > sig.CtxMask+1 {
		// A slot keeps CtxMask's bits of a context ID: one past them would be
		// remembered as another context and its pairs misjudged carried.
		return c, fmt.Errorf("core: Meta has %d loop contexts; a store slot tells %d apart", c.Meta.NumCtxs(), sig.CtxMask+1)
	}
	return c, nil
}

// makeEngines builds the engines of n workers that share the addresses by
// ownerOf, each over its own store (sig.OpenStore). The stores are
// built here (not lazily) so a bad Config.Backend spec fails construction with
// a descriptive error instead of a nil dereference on the hot path. A
// signature learns the routing rule (Shard) before its first access; exact
// stores have no slots to share.
func makeEngines(cfg *Config, n int) ([]*Engine, error) {
	out := make([]*Engine, n)
	for i := range out {
		st, err := sig.OpenStore(cfg.Backend, cfg.SlotsPerWorker)
		if err != nil {
			return nil, fmt.Errorf("core: Config.Backend: %w", err)
		}
		if g, ok := st.(*sig.Signature); ok {
			g.Shard(n)
		}
		out[i] = NewEngine(st, cfg.Meta, cfg.RaceCheck)
	}
	return out, nil
}

// refuseStamps is a race-checking profiler's answer to a batch carrying a
// stamp past event.MaxTS: a signature keeps 32 bits of one, so the race check
// would compare the low halves. The executors and the DDT2 decoder refuse such
// a stamp first; this catches embedders that bypass both. Callers fold the
// stamps into one OR and check it once: Serial before any event of the batch
// reaches the engine, MT before any event of a BatchSize segment reaches a
// ring. A refused batch of up to BatchSize events leaves the profile as it
// was.
func refuseStamps() {
	panic(fmt.Sprintf("core: AccessBatch: a stamp is past %d, the widest a store slot keeps (event.MaxTS)", uint64(event.MaxTS)))
}

// refuseRangeRef is the answer to a RangeRef slot handed over without ranges
// (Access, or AccessBatch with none): it would reach an engine as a data
// access at a range-table index. Checked where refuseStamps is.
func refuseRangeRef() {
	panic("core: AccessBatch: a RangeRef slot without the ranges it indexes")
}

// errDoubleFlush is the one message every mode's second Flush panics with.
const errDoubleFlush = "core: Flush called twice (a pipeline drains and joins its workers exactly once)"

// mpscCellBytes is the per-event ring cost used for Figure 7/8 accounting: a
// 48-byte access and the 16-byte run header of its position.
const mpscCellBytes = 64

// ring is a worker's transport: the MPSC run ring the producing threads copy
// their batches into (put) and the worker reads in place (pop). mu is the
// Figure 5 ablation's queue lock (Config.LockBased), nil on the lock-free
// path: "the major synchronization overhead comes from locking and unlocking
// the queues" (§IV). It is held around every part a producer copies in and
// publishes and around the worker's Peek, never across a wait for space: that
// wait would starve the Peek that frees the space.
type ring struct {
	q  *queue.MPSC[event.Access]
	mu *sync.Mutex
}

func (r *ring) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *ring) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// put copies the events of seg that idx lists into the ring, in order, as one
// claimed run, published part by part: one part unless the run wraps or
// outgrows the ring. An exact duplicate read folds into the copy before it in
// its part (dupRead); put returns how many did. The collapse is exact: an
// access to the same word between the two would have been routed here and
// broken the match, and the engine replays the multiplicity.
func (r *ring) put(seg []event.Access, idx []uint16) (dups uint64) {
	for pos := r.q.Claim(len(idx)); len(idx) > 0; {
		part := r.q.Part(pos, len(idx))
		r.lock()
		filled := 0
		for _, i := range idx[:len(part)] {
			a := &seg[i]
			if filled > 0 && a.Kind == event.Read && dupRead(&part[filled-1], a) {
				part[filled-1].Rep++
				dups++
				continue
			}
			part[filled] = *a
			filled++
		}
		r.q.Publish(pos, len(part), filled)
		r.unlock()
		pos, idx = pos+uint64(len(part)), idx[len(part):]
	}
	return dups
}

// pop hands the worker the runs at the head of the ring where they lie, the
// worker's until its next pop; empty when nothing is published.
func (r *ring) pop() []event.Access {
	r.lock()
	evs := r.q.Peek()
	r.unlock()
	return evs
}

// memBytes is the ring's fixed memory: a constant of QueueCap, whatever the
// schedule.
func (r *ring) memBytes() uint64 { return uint64(mpscCellBytes * r.q.Cap()) }

// worker is one consumer of the pipeline: a ring feeding a detection Engine,
// a batch at a time (process).
type worker struct {
	id  int
	in  *ring // nil for Serial's engine, driven inline
	eng *Engine
	// events counts the logical read/write accesses processed (a collapsed
	// read stands for 1+Rep of them) — the §IV-A load-balance quantity.
	events uint64

	// telemetry state, all worker-local. m is the telemetry sink (nil
	// disables everything). events_total is counted here on the consumer
	// side, one Add per drained batch: the concurrent producers of §V must not
	// share an atomic counter. The pub* fields are publication watermarks so
	// periodic in-flight publication and the final merge-time publication add
	// disjoint deltas to the same counters. maxDepth is the deepest the
	// ring was seen after a batch: the batch in hand (not freed before the
	// next pop) plus what is queued behind it. lanes, set on an MT's first
	// worker only, are the producers' counters; that worker publishes their
	// collapse counts with its own.
	m         *telemetry.Pipeline
	batches   uint64
	pubEvents uint64
	pubHits   uint64
	pubProbes uint64
	pubDups   uint64
	maxDepth  int64
	lanes     *[mtLanes]mtLane
}

// telemetryPublishEvery is the worker-batch cadence of in-flight telemetry
// publication (dep-cache counters, queue depth): frequent enough that a
// /metrics scrape sees a moving picture, rare enough to be free.
const telemetryPublishEvery = 1024

// publishEvents adds the events processed since the last publication to
// events_total.
func (w *worker) publishEvents() {
	if d := w.events - w.pubEvents; d > 0 {
		w.m.Events.Add(d)
		w.pubEvents = w.events
	}
}

// publishTelemetry pushes this worker's counter deltas (and lanes' collapse
// count) and its ring's depth high-water mark to the telemetry sink. Called
// from the worker loop periodically and from the merge stage after the flush
// barrier; the watermarks make the two publication paths add up exactly once.
func (w *worker) publishTelemetry() {
	if w.m == nil {
		return
	}
	w.publishEvents()
	hits, probes := w.eng.CacheStats()
	if d := hits - w.pubHits; d > 0 {
		w.m.DepCacheHits.Add(d)
	}
	if d := probes - w.pubProbes; d > 0 {
		w.m.DepCacheProbes.Add(d)
	}
	w.pubHits, w.pubProbes = hits, probes
	if w.lanes != nil {
		dups := uint64(0)
		for l := range w.lanes {
			dups += w.lanes[l].collapsed.Load()
		}
		w.m.DupCollapsed.Add(dups - w.pubDups)
		w.pubDups = dups
	}
	if w.in != nil {
		w.m.ObserveQueueDepth(w.id, w.maxDepth)
	}
}

// run is the worker loop: fetch a batch, process it ("worker threads consume
// chunks from their queues, analyze them, and store detected data dependences
// in thread-local maps", §IV). The batch lies in the ring until the next pop
// frees it. The wait policy is the pipeline-wide queue.Backoff.
//
// With a telemetry sink the worker counts its events after every batch and
// publishes its other counter deltas every telemetryPublishEvery batches; it
// reads no clock.
func (w *worker) run() {
	for idle := 0; ; {
		evs := w.in.pop()
		if len(evs) == 0 {
			idle++
			queue.Backoff(idle)
			continue
		}
		idle = 0
		done := w.process(evs)
		w.batches++
		if w.m != nil {
			// Read only for the gauges: the ring's tail is the producers' line.
			w.maxDepth = max(w.maxDepth, int64(w.in.q.Len()))
			w.publishEvents()
			if w.batches%telemetryPublishEvery == 0 {
				w.publishTelemetry()
			}
		}
		if done {
			return
		}
	}
}

// process runs one event batch through the engine in one call; done reports
// the flush sentinel. The sentinel is the last event ever pushed into a ring,
// so it can only end a batch; the engine skips it.
func (w *worker) process(evs []event.Access) (done bool) {
	w.events += w.eng.ProcessRun(evs)
	return evs[len(evs)-1].Kind == event.Flush
}

// pipeline is the shared chassis of every profiler variant: the worker set,
// the flush state, and the merge stage.
type pipeline struct {
	workers []*worker
	m       *telemetry.Pipeline
	wg      sync.WaitGroup
	flushed bool
}

// startAll launches one goroutine per worker.
func (p *pipeline) startAll() {
	for _, w := range p.workers {
		w := w
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			w.run()
		}()
	}
}

// beginFlush is the centralized double-flush guard.
func (p *pipeline) beginFlush() {
	if p.flushed {
		panic(errDoubleFlush)
	}
	p.flushed = true
}

// merge assembles the uniform Result of every mode. It must run after the
// workers have joined (the flush barrier makes all worker-local state safe to
// read). stats carries the producer-side counters; the accesses the workers
// processed add to its Accesses (MT's concurrent producers keep no shared
// counter; Serial's engine is driven inline and counts its own).
//
// "This step incurs only minor overhead since the local maps are free of
// duplicates" (§IV) — true for one process, not for a daemon draining
// sessions with millions of distinct dependences across many workers, so the
// dependence sets union by dep.MergeShards' parallel tree reduction. Loop
// aggregates (tens of keys) fold in a plain loop, at key-set granularity: the
// same carried key may surface on several workers (same source lines,
// different addresses) and must not be double-counted.
func (p *pipeline) merge(stats RunStats) *Result {
	res := &Result{Stats: stats}
	stores := make([]sig.Store, 0, len(p.workers))
	// The workers' sets and loop tables are stolen, not copied: the pipeline
	// is past its flush barrier and the engines are done, so the reduction
	// may consume them in place.
	sets := make([]*dep.Set, 0, len(p.workers))
	aggs := p.workers[0].eng.loops
	for i, w := range p.workers {
		res.Stats.Accesses += w.events
		if w.in != nil {
			res.WorkerEvents = append(res.WorkerEvents, w.events)
			res.Stats.QueueBytes += w.in.memBytes()
		}
		sets = append(sets, w.eng.Deps())
		if i > 0 {
			mergeLoopAggs(aggs, w.eng.loops)
		}
		res.Stats.StoreBytes += w.eng.Store().Bytes()
		res.Stats.StoreModeledBytes += w.eng.Store().ModeledBytes()
		hits, probes := w.eng.CacheStats()
		res.Stats.DepCacheHits += hits
		res.Stats.DepCacheProbes += probes
		stores = append(stores, w.eng.Store())
	}
	if p.m != nil {
		// Final telemetry publication: each worker adds only the delta beyond
		// what it already published in flight (the workers have joined, so
		// their local state is safe to read here). Published before the tree
		// reduction, so a scrape that lands during a long merge of a large
		// profile already reads the final counters and occupancy gauges.
		for _, w := range p.workers {
			w.publishTelemetry()
		}
		publishStoreTelemetry(p.m, stores...)
	}
	res.Deps = dep.MergeShards(sets)
	res.Loops = loopDepsOf(aggs)
	return res
}

// dupRead reports whether read a, uncollapsed itself, repeats last exactly
// (sameRead) and last's repetition count has room for it — the duplicate-read
// test of ring.put.
func dupRead(last, a *event.Access) bool {
	return sameRead(last, a) && a.Rep == 0 && last.Rep != event.MaxRep
}

// ownerOf is the modulo rule of Equation 1. The paper uses `address % W` on
// byte addresses; our substrate allocates 8-byte words, so the three
// alignment bits are shifted out first to keep the distribution even. Worker
// counts are powers of two in practice (they default to GOMAXPROCS but
// benchmarks and deployments pin 2/4/8/16), and for those the modulo is a
// mask — sparing the hot producer path a hardware divide per access, which
// profiling showed as a measurable slice of the distribution cost. The
// mapping is bit-identical to the modulo. The workers' signatures are told
// this rule (sig.Signature.Shard, from makeEngines) and index by what it
// leaves of the word: the two change together.
func ownerOf(addr uint64, w int, wMask uint64) int {
	if wMask != 0 {
		return int((addr >> 3) & wMask)
	}
	return int((addr >> 3) % uint64(w))
}

// powerOfTwoMask returns w-1 if w is a power of two, else 0.
func powerOfTwoMask(w int) uint64 {
	if w > 0 && w&(w-1) == 0 {
		return uint64(w - 1)
	}
	return 0
}
