package core

import (
	"sync"
	"sync/atomic"

	"ddprof/internal/event"
	"ddprof/internal/queue"
	"ddprof/internal/telemetry"
)

// MT is the profiler of §V for multi-threaded target programs.
//
// Every target thread hands its events over concurrently, in thread-private
// batches (event.Batcher): when its buffer fills and before every release
// operation of the target — unlock, barrier arrive, spawn, thread exit. A
// batch goes into the owning workers' lock-free MPSC rings as one run per ring
// — one claim, one publication (route) — not the paper's push per access from
// inside the target's lock region (Figure 4) that made its MT profiling slow
// (Figure 6).
//
// Ordering invariant: if access a happens-before access b on the same
// address, a's positions are claimed in the owner's ring before b's — a's thread
// flushed before the release that orders the two, and ring claims are FIFO —
// and within one thread claims follow program order. Only unordered pairs can
// arrive either way; those the sync-epoch stamps expose (Engine.build). A
// freed address changes threads at a join only (interp.FreeList), an edge too.
//
// As a pipeline composition, MT is run rings into the same engine workers as
// Parallel, which read the runs in place. The target's threads collapse
// duplicate reads as they copy a batch in (the §IV producer's filter, per
// batch), and a dedicated rebalancer goroutine runs the §IV-A heavy-hitter
// redistribution with a copy-on-write routing table, since the concurrent
// producers cannot reroute synchronously the way the sequential-target
// producer does.
type MT struct {
	pl    pipeline
	rings []*queue.MPSC[event.Access] // rings[i] is worker i's transport
	m     *telemetry.Pipeline

	// rt is the routing table, non-nil only when redistribution is on (else:
	// static). Producers read it lock-free; the rebalancer replaces it copy-on-write.
	rt      atomic.Pointer[routeTable]
	static  routeTable
	heavyMu sync.Mutex
	heavy   *heavySketch
	// kick nudges the rebalancer every kickEvery accesses of a lane; stop
	// ends it.
	kick       chan struct{}
	stop       chan struct{}
	kickEvery  uint64
	rebalWG    sync.WaitGroup
	rebalStats RunStats

	// lanes stripes the producers' counters by target thread: the rebalancer
	// sees each lane quiescent in turn, where one counter might never read 0
	// under load. Lanes keep off each other's lines and rt's, hence the pad.
	_     [64]byte
	lanes [mtLanes]mtLane
}

// mtLanes is the number of producer lanes; a target thread uses lane
// Thread & (mtLanes-1). Threads that share a lane stay correct (the
// counters are atomic), they just share a line again.
const mtLanes = 16

// mtLane is one producer lane's counters, alone on their cache lines (128
// bytes: no two lanes' counters share a line at any 8-byte alignment, and
// the adjacent-line prefetcher pairs lines).
type mtLane struct {
	// inflight counts the lane's producers between routing-table load and the
	// last publication of the batch routed by it. The rebalancer waits for every lane
	// to drain after publishing a new table, so every access routed by the old
	// one is in the old owner's queue before MIGRATE is pushed behind them.
	inflight atomic.Int64
	// sampled counts the lane's events: the sampling and kick cadences.
	sampled atomic.Uint64
	// collapsed counts the duplicate reads the lane's producers folded away,
	// added once per batch.
	collapsed atomic.Uint64
	_         [104]byte
}

// routeTable maps addresses to owning workers: the Equation 1 modulo rule,
// overridden by the redirect map for migrated addresses ("redistribution
// rules are stored in a map and have higher priority than the modulo
// function", §IV-A). Tables are immutable once published.
type routeTable struct {
	w        int
	wMask    uint64
	redirect map[uint64]int
}

func (rt *routeTable) owner(addr uint64) int {
	if len(rt.redirect) != 0 {
		if w, ok := rt.redirect[addr]; ok {
			return w
		}
	}
	return ownerOf(addr, rt.w, rt.wMask)
}

// newMT builds the MT pipeline and starts the workers. RaceCheck is always on:
// the stamps it needs are already being collected.
func newMT(cfg Config) (*MT, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	stores, err := makeStores(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m := &MT{m: cfg.Metrics}
	m.static = routeTable{w: cfg.Workers, wMask: powerOfTwoMask(cfg.Workers)}
	m.pl.m = cfg.Metrics
	for i := 0; i < cfg.Workers; i++ {
		eng := NewEngine(stores[i], cfg.Meta, true)
		if cfg.TrackBounds {
			eng.EnableBoundsTracking()
		}
		tr := &ringTransport{in: queue.NewMPSC[event.Access](cfg.QueueCap)}
		m.rings = append(m.rings, tr.in)
		m.pl.workers = append(m.pl.workers, &worker{
			id:      i,
			tr:      tr,
			eng:     eng,
			m:       cfg.Metrics,
			onDelta: cfg.OnEpochDelta,
			// events_total is counted here on the consumer side, one batched
			// Add per drain: the concurrent producers of §V must not pay a
			// shared atomic per access.
			countEvents: true,
		})
	}
	m.pl.startAll()
	if cfg.RedistributeEvery > 0 {
		// The sequential-target producer checks every RedistributeEvery
		// chunks; MT has no chunks, so the equivalent cadence is that many
		// chunk-sizes worth of accesses.
		m.kickEvery = uint64(cfg.RedistributeEvery) * event.ChunkSize
		m.heavy = newHeavySketch(64)
		m.kick = make(chan struct{}, 1)
		m.stop = make(chan struct{})
		m.rt.Store(&m.static)
		m.rebalWG.Add(1)
		go m.rebalancer()
	}
	return m, nil
}

// Access implements Profiler: the one-event batch, safe for concurrent use.
func (m *MT) Access(a event.Access) { m.route([]event.Access{a}) }

// AccessBatch implements Profiler; safe for concurrent use, one caller per
// target thread. RangeRef slots expand at their position (routeRange).
func (m *MT) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for len(accesses) > 0 {
		n := 0
		for n < len(accesses) && n < event.BatchSize && accesses[n].Kind != event.RangeRef {
			n++
		}
		if n > 0 {
			m.route(accesses[:n])
		} else {
			m.routeRange(&ranges[accesses[0].Addr])
			n = 1
		}
		accesses = accesses[n:]
	}
}

// routeRange expands r's elements, in order, into BatchSize segments and
// routes those: a range costs what its points in a batch would.
func (m *MT) routeRange(r *event.Range) {
	var buf [event.BatchSize]event.Access
	for j := uint32(0); j < r.Count; {
		n := 0
		for ; n < len(buf) && j < r.Count; n, j = n+1, j+1 {
			buf[n] = r.At(j)
		}
		m.route(buf[:n])
	}
}

// route pushes up to BatchSize events of one thread, in order, into their
// owners' rings — with redistribution on, under the quiescence protocol: the
// lane's inflight is raised BEFORE the table is loaded, so the rebalancer seeing
// it at 0 after publishing a table knows every run claimed by the old one is published.
func (m *MT) route(seg []event.Access) {
	lane := &m.lanes[seg[0].Thread&(mtLanes-1)]
	if m.rt.Load() == nil {
		m.spread(seg, &m.static, lane) // redistribution off: nothing in flight
		return
	}
	// Every 16th event of the lane is sampled (TryLock: a lost one is noise).
	end := lane.sampled.Add(uint64(len(seg)))
	start := end - uint64(len(seg))
	if i := int(15 - start&15); i < len(seg) && m.heavyMu.TryLock() {
		for ; i < len(seg); i += 16 {
			m.heavy.Offer(seg[i].Addr)
		}
		m.heavyMu.Unlock()
	}
	if start/m.kickEvery != end/m.kickEvery {
		select {
		case m.kick <- struct{}{}:
		default:
		}
	}
	lane.inflight.Add(1)
	m.spread(seg, m.rt.Load(), lane)
	lane.inflight.Add(-1)
}

// spread is route's transport half: a stable counting sort of the events by
// owner, then ring by ring one Claim for all of the ring's events, which are
// copied into the ring in event order — an exact duplicate read folding into
// the copy before it (dupRead) — and published part by part: one part unless
// the run wraps or outgrows the ring. One ring at a time: see MPSC.Claim.
func (m *MT) spread(seg []event.Access, rt *routeTable, lane *mtLane) {
	if len(seg) == 1 {
		m.rings[rt.owner(seg[0].Addr)].Push(seg[0])
		return
	}
	var own [event.BatchSize]int32
	var order [event.BatchSize]uint16
	var few [16]uint16
	end := few[:min(len(few), len(m.rings))] // end[w]: where ring w's events end in order
	if len(m.rings) > len(few) {
		end = make([]uint16, len(m.rings))
	}
	for i := range seg {
		own[i] = int32(rt.owner(seg[i].Addr))
		end[own[i]]++
	}
	sum := uint16(0)
	for w := range m.rings {
		sum, end[w] = sum+end[w], sum
	}
	for i := range seg {
		order[end[own[i]]] = uint16(i)
		end[own[i]]++
	}
	lo, dups := uint16(0), uint64(0)
	for w, q := range m.rings {
		idx := order[lo:end[w]]
		if lo = end[w]; len(idx) == 0 {
			continue
		}
		for pos := q.Claim(len(idx)); len(idx) > 0; {
			part := q.Part(pos, len(idx))
			n := 0
			for _, i := range idx[:len(part)] {
				a := &seg[i]
				if n > 0 && a.Kind == event.Read && dupRead(&part[n-1], a) {
					part[n-1].Rep++
					dups++
					continue
				}
				part[n] = *a
				n++
			}
			q.Publish(pos, len(part), n)
			pos, idx = pos+uint64(len(part)), idx[len(part):]
		}
	}
	if dups > 0 {
		lane.collapsed.Add(dups)
	}
}

// rebalancer runs redistribution rounds on kicks; on stop it runs one final
// round (making rebalancing deterministic for drained streams) and exits.
func (m *MT) rebalancer() {
	defer m.rebalWG.Done()
	for {
		select {
		case <-m.stop:
			m.rebalanceRound()
			return
		case <-m.kick:
			m.rebalanceRound()
		}
	}
}

// rebalanceRound checks whether the top heavy hitters are spread evenly over
// the workers and migrates them if not (§IV-A).
func (m *MT) rebalanceRound() {
	m.heavyMu.Lock()
	top := m.heavy.Top(10)
	m.heavyMu.Unlock()
	rt := m.rt.Load()
	moves := planRebalance(top, rt.w, rt.owner)
	if len(moves) == 0 {
		return
	}
	for _, mv := range moves {
		m.migrate(mv.addr, mv.from, mv.to)
	}
	m.rebalStats.Redistributions++
	if m.m != nil {
		m.m.Redistributions.Inc()
	}
}

// migrate moves one address and its signature state between workers while
// the producers keep pushing. The per-address order is preserved by a
// hold-and-replay protocol layered on the sequential-target mailboxes:
//
//  1. A HOLD control event is pushed to the destination; the destination
//     buffers any access to the address that arrives after it.
//  2. The routing table is republished with the redirect. New accesses now
//     go to the destination, where they land behind HOLD (the MPSC ring
//     assigns slots in push order and the table swap happens after the HOLD
//     push completed).
//  3. The rebalancer waits for in-flight producers to drain: afterwards,
//     every access routed by the old table is in the old owner's queue.
//  4. MIGRATE is pushed behind them; the old owner exports the address's
//     signature state through its mailbox and forgets it.
//  5. The state is handed to the destination's install mailbox and INSTALL
//     pushed; on INSTALL the destination adopts the state, then replays the
//     held accesses in arrival order.
func (m *MT) migrate(addr uint64, from, to int) {
	fw, tw := m.pl.workers[from], m.pl.workers[to]

	// Step 1: hold at the destination.
	m.rings[to].Push(event.Access{Addr: addr, Kind: event.Hold})

	// Step 2: publish the rerouted table (copy-on-write).
	old := m.rt.Load()
	redirect := make(map[uint64]int, len(old.redirect)+1)
	for k, v := range old.redirect {
		redirect[k] = v
	}
	redirect[addr] = to
	m.rt.Store(&routeTable{w: old.w, wMask: old.wMask, redirect: redirect})

	// Step 3: quiesce producers still holding the old table. Lane by lane is
	// enough: a lane read at 0 after the publication has no producer left
	// that loaded the old table, and any that enters later loads the new one.
	for l := range m.lanes {
		for i := 0; m.lanes[l].inflight.Load() != 0; i++ {
			queue.Backoff(i)
		}
	}

	// Step 4: extract the state from the old owner.
	m.rings[from].Push(event.Access{Addr: addr, Kind: event.Migrate})
	var st *migState
	for i := 0; ; i++ {
		if st = fw.migOut.Swap(nil); st != nil {
			break
		}
		queue.Backoff(i)
	}

	// Step 5: install at the destination.
	for i := 0; !tw.installIn.CompareAndSwap(nil, st); i++ {
		queue.Backoff(i)
	}
	m.rings[to].Push(event.Access{Addr: addr, Kind: event.Install})

	m.rebalStats.Migrations++
	if m.m != nil {
		m.m.Migrations.Inc()
	}
}

// Flush implements Profiler. It must be called after every target thread has
// finished (the interpreter joins them first), so no Access call can race
// with the flush sentinels.
func (m *MT) Flush() *Result {
	m.pl.beginFlush()
	if m.stop != nil {
		close(m.stop)
		m.rebalWG.Wait()
	}
	for _, q := range m.rings {
		q.Push(event.Access{Kind: event.Flush})
	}
	m.pl.wg.Wait()

	stats := m.rebalStats
	for l := range m.lanes {
		stats.DupCollapsed += m.lanes[l].collapsed.Load()
	}
	if m.m != nil && stats.DupCollapsed > 0 {
		m.m.DupCollapsed.Add(stats.DupCollapsed)
	}
	// sumAccesses: counting on the consumer side keeps the concurrent
	// producers free of a shared atomic counter; the flush barrier makes the
	// per-worker sums safe to read.
	return m.pl.merge(stats, 0, true)
}
