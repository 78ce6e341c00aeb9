package core

// The composable pipeline layer. The paper's architecture (§IV–V) is one
// pipeline with pluggable pieces, and this file is that decomposition:
//
//	target thread(s)
//	      │ AccessBatch() (Access() is the one-event case)
//	┌─────▼──────┐
//	│  producer  │  routing (owner mask), duplicate-read collapse
//	└─────┬──────┘
//	      │ chunks pushed (SPSC / Locked) or runs copied into the ring (MPSC)
//	┌─────▼──────┐
//	│ transport  │  the worker's side: one pop contract over both
//	└─────┬──────┘
//	      │ event batches
//	┌─────▼──────┐  uniform control handling (flush/epoch mark),
//	│   worker   │  shared backoff policy, one Engine each
//	└─────┬──────┘
//	      │ engines, counters
//	┌─────▼──────┐  dep-set merge, loop-agg union, store/queue/cache
//	│   merge    │  accounting, occupancy + queue-depth publication
//	└────────────┘
//
// Serial, Parallel and MT are thin compositions of these stages, built by New;
// the golden fixtures in testdata/goldens.json pin their profiles.

import (
	"fmt"
	"runtime"
	"sync"
	"time"
	"unsafe"

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
	// ModeParallel is the chunked lock-free pipeline of §IV for sequential
	// targets (Config.LockBased selects the Figure 5 ablation queues).
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
	case ModeParallel:
		return newParallel(cfg)
	case ModeMT:
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
		return c, fmt.Errorf("core: QueueCap = %d; want >= 1 chunks (accesses in MT mode), or 0 for the default", c.QueueCap)
	}
	if c.QueueCap == 0 {
		if mode == ModeMT {
			// Default ring depth: 4Ki events (256KiB) per worker, whatever the
			// run lengths. Deeper rings only add slack the consumer never
			// catches up on, and at 64Ki events the ring outgrows the cache
			// entirely; keeping it cache-resident is worth more than extra
			// buffering. It also trims the MT queue memory of Figure 8.
			c.QueueCap = 1 << 12
		} else {
			// Same events/s from 4 to 64 (ddbench); the chunk ring grows with
			// it. 8 chunks are the 4Ki events of depth MT's ring has.
			c.QueueCap = 8
		}
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
// ownerOf, each over its own store from the backend registry. The stores are
// built here (not lazily) so a bad Config.Backend spec fails construction with
// a descriptive error instead of a nil dereference on the hot path. A
// signature learns the routing rule (Shard) before its first access; exact
// stores have no slots to share. An engine keeps per-variable bounds exactly
// when the pipeline has a delta sink to ship them in (EpochDelta.Bounds).
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
		out[i].trackBounds = cfg.OnEpochDelta != nil
	}
	return out, nil
}

// refuseStamps is a race-checking profiler's answer to a batch carrying a
// stamp past event.MaxTS: a signature keeps 32 bits of one, so the race check
// would compare the low halves. The executors and the DDT2 decoder refuse such
// a stamp first; this catches embedders that bypass both. Callers fold the
// batch's stamps into one OR and check it once, after the loop they already
// run; MT's is before the first event reaches a ring, the others' after the
// batch was routed, so a refused batch leaves a profile that must be dropped.
func refuseStamps() {
	panic(fmt.Sprintf("core: AccessBatch: a stamp is past %d, the widest a store slot keeps (event.MaxTS)", uint64(event.MaxTS)))
}

// errDoubleFlush is the one message every mode's second Flush panics with.
const errDoubleFlush = "core: Flush called twice (a pipeline drains and joins its workers exactly once)"

// chunkEvents is the capacity of a chunk: one executor batch
// (event.BatchSize), 24 KB, so a worker's whole ring stays cache-resident.
// Measured against 256 and 1024 (EXPERIMENTS.md, "The chunk ring").
const chunkEvents = 512

// chunk is the carrier of the chunked transports: up to chunkEvents events
// bound for one worker, filled in place by the producer ("the main thread ...
// collects memory accesses in chunks", §IV). event.Chunk is the decoder's
// carrier and also holds a range side table; ranges never enter a pipeline
// (they expand at the AccessBatch seam), so chunks here are events only.
type chunk struct {
	n   int
	buf [chunkEvents]event.Access
}

// chunkBytes is the memory footprint of one chunk, for the Figure 7/8
// queue-memory accounting.
const chunkBytes = uint64(unsafe.Sizeof(chunk{}))

// chunkQueue is the queue surface chunked transports need; satisfied by both
// the lock-free queue.SPSC and the lock-based queue.Locked, which is how the
// Figure 5 lock-based/lock-free ablation swaps implementations.
type chunkQueue interface {
	TryPop() (*chunk, bool)
	Push(*chunk)
	Len() int
	Cap() int
}

// transport is the worker's and the merge stage's side of what carries events
// from the producer stage to one worker. Two granularities exist behind it:
// chunked (sequential targets) and runs in a ring
// (multi-threaded targets). The pushing side differs in kind, not just in
// granularity, so each producer holds its concrete type: the §IV producer its
// chunkTransports, MT its rings.
type transport interface {
	// pop returns the next batch of events to process; the batch is the
	// transport's own memory, the worker's until its next pop.
	pop() ([]event.Access, bool)
	// memBytes is the transport's fixed memory, for Figure 7/8 accounting.
	memBytes() uint64
	// observedMaxDepth is the consumer-side depth high-water mark, or -1
	// when the producer already reports depths at push time.
	observedMaxDepth() int64
}

// chunkTransport is a worker's inbound chunk queue over the fixed ring of
// chunks it carries: in.Cap()+2 slots (one open, a full queue, one in
// processing), opened round-robin by the producer and never handed back.
// Chunk s+1 reuses the slot of chunk s-cap-1, which is free by the time it is
// opened: Push(s) returning means the worker has popped chunk s-cap, and
// worker.run pops only after it has finished the chunk before. The queue's
// own backpressure is the free list, for SPSC and Locked alike.
type chunkTransport struct {
	in   chunkQueue
	ring []chunk
	next int // producer-owned: the slot open hands out next
}

func newChunkTransport(lockBased bool, qcap int) *chunkTransport {
	var in chunkQueue
	if lockBased {
		in = queue.NewLocked[*chunk](qcap)
	} else {
		in = queue.NewSPSC[*chunk](qcap)
	}
	return &chunkTransport{in: in, ring: make([]chunk, in.Cap()+2)}
}

// open returns the next chunk of the ring, empty. Producer-side; the previous
// open chunk must have been pushed.
func (t *chunkTransport) open() *chunk {
	c := &t.ring[t.next]
	if t.next++; t.next == len(t.ring) {
		t.next = 0
	}
	c.n = 0
	return c
}

func (t *chunkTransport) pop() ([]event.Access, bool) {
	c, ok := t.in.TryPop()
	if !ok {
		return nil, false
	}
	return c.buf[:c.n], true
}

// memBytes is the queue's pointer cells plus the chunk ring: a constant of
// QueueCap, whatever the schedule.
func (t *chunkTransport) memBytes() uint64 {
	return uint64(t.in.Cap())*8 + uint64(len(t.ring))*chunkBytes
}

func (t *chunkTransport) observedMaxDepth() int64 { return -1 }

// mpscCellBytes is the per-event ring cost used for Figure 8 accounting: a
// 48-byte access and the 16-byte run header of its position.
const mpscCellBytes = 64

// ringTransport is MT mode's transport: the worker's run ring. The target's
// threads copy their batches into it (MT.spread), collapsing duplicate reads as
// they copy; pop hands the worker the runs at the head where they lie.
type ringTransport struct {
	in       *queue.MPSC[event.Access]
	maxDepth int64 // consumer-owned; read by the merge stage after the flush barrier
}

func (t *ringTransport) pop() ([]event.Access, bool) {
	evs := t.in.Peek()
	if len(evs) == 0 {
		return nil, false
	}
	// Depth observation for the merge stage's queue-depth gauges: the run in
	// hand (not freed before the next Peek) plus what is queued behind it.
	if d := int64(t.in.Len()); d > t.maxDepth {
		t.maxDepth = d
	}
	return evs, true
}

func (t *ringTransport) memBytes() uint64        { return uint64(mpscCellBytes * t.in.Cap()) }
func (t *ringTransport) observedMaxDepth() int64 { return t.maxDepth }

// worker is one consumer of the pipeline: a transport feeding a detection
// Engine.
type worker struct {
	id  int
	tr  transport
	eng *Engine
	// events counts the logical read/write accesses processed (a collapsed
	// read stands for 1+Rep of them) — the §IV-A load-balance quantity.
	events uint64
	// onDelta receives this worker's epoch-delta extraction at each
	// EpochMark; nil disables extraction entirely (the mark is then a no-op).
	// Called on the worker goroutine at a batch boundary.
	onDelta func(*EpochDelta)

	// flight-recorder state, all worker-local. m is the telemetry sink (nil
	// disables everything). One in sampleEvery batches is timed
	// (StageWorkerNs), as is the wait of one in sampleEvery idle episodes
	// (StageTransportWaitNs). countEvents selects
	// consumer-side events_total accounting (MT mode, whose concurrent
	// producers must not share an atomic counter): one Add per drained batch
	// instead of one per access. The pub* fields are publication watermarks so
	// periodic in-flight publication and the final merge-time publication add
	// disjoint deltas to the same counters.
	m           *telemetry.Pipeline
	countEvents bool
	batches     uint64
	waits       uint64
	pubEvents   uint64
	pubHits     uint64
	pubProbes   uint64
}

// sampleEvery is the stage-latency sampling rate: one in sampleEvery chunk
// pushes / worker batches / idle episodes is timed into the telemetry
// histograms. Sampling rather than timing every chunk keeps clock reads off
// the throughput path.
const sampleEvery = 32

// telemetryPublishEvery is the worker-batch cadence of in-flight telemetry
// publication (events, dep-cache counters): frequent enough that /metrics
// and the Snapshotter see a moving picture, rare enough to be free.
const telemetryPublishEvery = 1024

// publishTelemetry pushes this worker's counter deltas to the telemetry
// sink. Called from the worker loop periodically and from the merge stage
// after the flush barrier; the watermarks make the two publication paths add
// up exactly once.
func (w *worker) publishTelemetry() {
	if w.m == nil {
		return
	}
	if w.countEvents {
		if d := w.events - w.pubEvents; d > 0 {
			w.m.Events.Add(d)
			w.pubEvents = w.events
		}
	}
	hits, probes := w.eng.CacheStats()
	if d := hits - w.pubHits; d > 0 {
		w.m.DepCacheHits.Add(d)
	}
	if d := probes - w.pubProbes; d > 0 {
		w.m.DepCacheProbes.Add(d)
	}
	w.pubHits, w.pubProbes = hits, probes
}

// run is the worker loop: fetch a batch, process it ("worker threads consume
// chunks from their queues, analyze them, and store detected data dependences
// in thread-local maps. Empty chunks are recycled", §IV). A batch is finished
// before the next pop: chunkTransport's slot reuse depends on that order. The
// wait policy is the pipeline-wide queue.Backoff.
//
// Flight recording rides along at sampled granularity: one in sampleEvery
// idle episodes times the wait for the next batch (transport wait — the
// consumer-side view of producer/transport backpressure), one in sampleEvery
// batches times its processing, and every telemetryPublishEvery batches the
// worker publishes its counter deltas. All of it is skipped when m is nil,
// and clock reads never land on the per-event path.
func (w *worker) run() {
	var waitT0 time.Time
	waiting := false
	for idle := 0; ; {
		evs, ok := w.tr.pop()
		if !ok {
			if idle == 0 && w.m != nil {
				if w.waits++; w.waits%sampleEvery == 0 {
					waiting = true
					waitT0 = time.Now()
				}
			}
			idle++
			queue.Backoff(idle)
			continue
		}
		if waiting {
			w.m.StageTransportWaitNs.Observe(time.Since(waitT0).Nanoseconds())
			waiting = false
		}
		idle = 0
		var done bool
		w.batches++
		if w.m != nil && w.batches%sampleEvery == 0 {
			t0 := time.Now()
			done = w.process(evs)
			w.m.StageWorkerNs.Observe(time.Since(t0).Nanoseconds())
		} else {
			done = w.process(evs)
		}
		if w.m != nil {
			if w.countEvents {
				if d := w.events - w.pubEvents; d > 0 {
					w.m.Events.Add(d)
					w.pubEvents = w.events
				}
			}
			if w.batches%telemetryPublishEvery == 0 {
				w.publishTelemetry()
			}
		}
		if done {
			return
		}
	}
}

// process applies one event batch, handling the control kinds uniformly for
// every mode.
func (w *worker) process(evs []event.Access) (done bool) {
	for i := range evs {
		ev := &evs[i]
		switch ev.Kind {
		case event.Flush:
			done = true
		case event.EpochMark:
			// Epoch boundary: extract the delta on this goroutine — the
			// producer never waits, and accesses already queued behind the
			// mark simply land in the next epoch.
			if w.onDelta != nil {
				d := w.eng.ExtractEpochDelta(uint32(ev.Addr))
				d.Worker = w.id
				w.onDelta(d)
			}
		default:
			if ev.Kind != event.Remove {
				// A collapsed read stands for 1+Rep target accesses; count them all.
				w.events += 1 + uint64(ev.Rep)
			}
			w.eng.Process(*ev)
		}
	}
	return done
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
// read). stats carries the producer-side counters; sumAccesses selects
// consumer-side access counting (MT mode, where concurrent producers keep no
// shared counter).
//
// "This step incurs only minor overhead since the local maps are free of
// duplicates" (§IV) — true for one process, not for a daemon draining
// sessions with millions of distinct dependences across many workers, so the
// dependence sets union by dep.MergeShards' parallel tree reduction. Loop
// aggregates (tens of keys) fold in a plain loop, at key-set granularity: the
// same carried key may surface on several workers (same source lines,
// different addresses) and must not be double-counted.
func (p *pipeline) merge(stats RunStats, sumAccesses bool) *Result {
	var mergeT0 time.Time
	if p.m != nil {
		mergeT0 = time.Now()
	}
	res := &Result{Stats: stats}
	stores := make([]sig.Store, 0, len(p.workers))
	// The workers' sets and loop tables are stolen, not copied: the pipeline
	// is past its flush barrier and the engines are done, so the reduction
	// may consume them in place.
	sets := make([]*dep.Set, 0, len(p.workers))
	aggs := p.workers[0].eng.loops
	for i, w := range p.workers {
		if sumAccesses {
			res.Stats.Accesses += w.events
		}
		if w.tr != nil {
			res.WorkerEvents = append(res.WorkerEvents, w.events)
			res.Stats.QueueBytes += w.tr.memBytes()
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
		for i, w := range p.workers {
			w.publishTelemetry()
			if w.tr == nil {
				continue
			}
			if d := w.tr.observedMaxDepth(); d >= 0 {
				p.m.ObserveQueueDepth(i, d)
			}
		}
		publishStoreTelemetry(p.m, stores...)
	}
	res.Deps = dep.MergeShards(sets)
	res.Loops = loopDepsOf(aggs)
	res.Carried = carriedKeysOf(aggs)
	if p.m != nil {
		p.m.StageMergeNs.Observe(time.Since(mergeT0).Nanoseconds())
	}
	return res
}

// dupRead reports whether read a, uncollapsed itself, repeats last exactly and
// last's repetition count has room for it — the one duplicate-read test of
// both producers (putBatch, MT.spread). Addr leads the comparison because it is
// what differs between neighbours.
func dupRead(last, a *event.Access) bool {
	return last.Addr == a.Addr && last.IterVec == a.IterVec &&
		last.Loc == a.Loc && last.TS == a.TS && last.Var == a.Var &&
		last.CtxID == a.CtxID && last.Thread == a.Thread && last.Flags == a.Flags &&
		last.Kind == event.Read && a.Rep == 0 && last.Rep != event.MaxRep
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

// producer is the single-threaded distribution stage of §IV: it owns the
// open chunks, the routing decision (ownerOf) and the duplicate-read filter.
type producer struct {
	// trs[i] is worker i's transport, by its concrete type: the producer is
	// the one opening its chunks and pushing them in.
	trs   []*chunkTransport
	w     int
	wMask uint64 // w-1 when w is a power of two, else 0 (see ownerOf)
	// open[i] is the chunk being filled for worker i. It always has room for
	// one more event: a chunk is pushed the moment it fills.
	open         []*chunk
	stats        RunStats
	dupPublished uint64
	m            *telemetry.Pipeline
	// pushCtr: one in sampleEvery chunk pushes is timed into StageProduceNs
	// (push incl. backpressure, depth gauge).
	pushCtr uint64
	// raceCheck refuses stamps past event.MaxTS (refuseStamps).
	raceCheck bool
}

// init wires the producer to trs, which the pipeline's workers pop from.
func (pr *producer) init(trs []*chunkTransport, cfg *Config) {
	pr.trs = trs
	pr.w = cfg.Workers
	pr.wMask = powerOfTwoMask(cfg.Workers)
	pr.m = cfg.Metrics
	pr.raceCheck = cfg.RaceCheck
	pr.open = make([]*chunk, cfg.Workers)
	for i := range pr.open {
		pr.open[i] = trs[i].open()
	}
}

// putBatch is the ingest seam and the producer's one routing loop: it walks
// the caller's buffer in place and, per event, picks the owner, collapses an
// exact duplicate read, stores the event into the owner's open chunk and
// pushes the chunk when that filled it. Every kind a caller may hand over
// takes this loop — data, Remove, and RangeRef slots, which index into ranges
// and expand here, element by element in order, so a range is by construction
// its points. Control kinds (EpochMark and above) must not appear: the caller
// splits batches at epoch marks.
func (pr *producer) putBatch(accesses []event.Access, ranges []event.Range) {
	var data, stamps uint64
	for i := range accesses {
		a := &accesses[i]
		stamps |= a.TS
		if a.Kind == event.RangeRef {
			r := &ranges[a.Addr]
			if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
				pr.stats.Ranges++
				pr.stats.RangeElements += uint64(r.Count)
				if pr.m != nil {
					pr.m.Ranges.Inc()
					pr.m.RangeElements.Add(uint64(r.Count))
				}
			}
			for j := uint32(0); j < r.Count; j++ {
				pr.putBatch([]event.Access{r.At(j)}, nil)
			}
			continue
		}
		slot := ownerOf(a.Addr, pr.w, pr.wMask)
		c := pr.open[slot]
		if a.Kind <= event.Write {
			// A collapsed read (Rep > 0) stands for 1+Rep accesses.
			data += uint64(1 + a.Rep)
			// Duplicate filter: a read identical to the chunk's previous event
			// (same statement re-reading the same word within one iteration) is
			// collapsed into that event's repetition count. Any intervening
			// access to the same address routes to the same chunk and resets
			// the match, so the collapse is exact: the engine replays the
			// multiplicity and the profile is byte-identical.
			if a.Kind == event.Read && c.n > 0 && dupRead(&c.buf[c.n-1], a) {
				c.buf[c.n-1].Rep++
				pr.stats.DupCollapsed++
				continue
			}
		}
		c.buf[c.n] = *a
		if c.n++; c.n == len(c.buf) {
			pr.push(slot, c.n, true)
		}
	}
	if stamps > event.MaxTS && pr.raceCheck {
		refuseStamps()
	}
	pr.stats.Accesses += data
}

// pushControl sends a control event to worker w behind everything routed to
// it so far: the event rides w's open chunk, so it costs no chunk of its own.
// The push counts as a control chunk, and as a data chunk too when the chunk
// carried data — what a data push followed by a dedicated control chunk used
// to count. refill is false only for the last chunk a worker is sent.
func (pr *producer) pushControl(w int, ev event.Access, refill bool) {
	c := pr.open[w]
	data := c.n
	c.buf[c.n] = ev
	c.n++
	pr.push(w, data, refill)
	pr.stats.ControlChunks++
}

// push hands worker w its open chunk and, if refill, opens its next one. data
// is the number of target events in the chunk (it may end in a control event);
// every push publishes the counters accrued since the last.
func (pr *producer) push(w, data int, refill bool) {
	// Sampled producer-stage span: the push (including any backpressure wait
	// inside it) and the depth observation — the per-chunk routing cost the
	// §IV producer pays.
	var produceT0 time.Time
	timed := false
	if pr.m != nil {
		if pr.pushCtr++; pr.pushCtr%sampleEvery == 0 {
			timed = true
			produceT0 = time.Now()
		}
	}
	tr := pr.trs[w]
	in := tr.in
	in.Push(pr.open[w]) // returning is what frees the slot tr.open reuses below
	pr.open[w] = nil
	if data > 0 {
		pr.stats.Chunks++
	}
	if pr.m != nil {
		pr.m.Events.Add(uint64(data))
		if data > 0 {
			pr.m.Chunks.Inc()
		}
		if d := pr.stats.DupCollapsed - pr.dupPublished; d > 0 {
			pr.m.DupCollapsed.Add(d)
			pr.dupPublished = pr.stats.DupCollapsed
		}
		// Depth right after the push; the pushed chunk may already have been
		// consumed, so count it in to keep the gauge a lower bound of the
		// burst the worker saw.
		d := int64(in.Len())
		if d == 0 {
			d = 1
		}
		pr.m.ObserveQueueDepth(w, d)
	}
	if refill {
		pr.open[w] = tr.open()
	}
	if timed {
		pr.m.StageProduceNs.Observe(time.Since(produceT0).Nanoseconds())
	}
}

// drainFlush pushes every worker its remaining events and a flush sentinel
// behind them; the caller then waits on the pipeline's flush barrier. The
// sentinel rides the owner's last open chunk.
func (pr *producer) drainFlush() {
	for w := range pr.trs {
		pr.pushControl(w, event.Access{Kind: event.Flush}, false)
	}
}
