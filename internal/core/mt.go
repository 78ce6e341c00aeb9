package core

import (
	"sync"
	"sync/atomic"

	"ddprof/internal/event"
	"ddprof/internal/queue"
	"ddprof/internal/telemetry"
)

// MT is the profiler of §V for multi-threaded target programs, and the §IV
// profiler of sequential ones: a sequential target is a one-thread §V target
// (ModeParallel), whose ring claims are then uncontended, with the race check
// as configured.
//
// Every target thread hands its events over concurrently, in thread-private
// batches (event.Batcher): when its buffer fills and before every release
// operation of the target — unlock, barrier arrive, spawn, thread exit. A
// batch goes into the owning workers' lock-free MPSC rings as one run per ring
// — one claim, one publication (spread) — not the paper's push per access from
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
// As a pipeline composition, MT is run rings into engine workers, which read
// the runs in place. The target's threads route by the fixed ownerOf rule and
// collapse duplicate reads as they copy a batch in, so they share nothing but
// the rings.
type MT struct {
	pl        pipeline
	rings     []*ring // rings[i] is worker i's transport
	wMask     uint64  // len(rings)-1 when that is a power of two, else 0 (see ownerOf)
	raceCheck bool    // refuse stamps past event.MaxTS (refuseStamps)
	m         *telemetry.Pipeline

	// lanes stripes the producers' counters by target thread, off each
	// other's cache lines and the fields above, hence the pad.
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
	// collapsed counts the duplicate reads the lane's producers folded away,
	// added once per batch; ranges and rangeElems the data ranges they
	// expanded (RunStats.Ranges, RangeElements).
	collapsed, ranges, rangeElems atomic.Uint64
	_                             [104]byte
}

// spreadRows is spread's scratch: the segment's cnt[w] events for ring w are
// listed, by index, from idx[w*BatchSize].
type spreadRows struct {
	cnt []uint16
	idx []uint16
}

// rowsPool holds spreadRows between segments, for every MT in the process: a
// pool inside MT would keep the whole profiler reachable after its Flush, as
// the runtime lists each pool in use until two collections later.
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

// newMT builds the pipeline and starts the workers. ModeMT always checks
// races: the stamps it needs are already being collected.
func newMT(cfg Config) (*MT, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeMT {
		cfg.RaceCheck = true
	}
	engs, err := makeEngines(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m := &MT{m: cfg.Metrics, wMask: powerOfTwoMask(cfg.Workers), raceCheck: cfg.RaceCheck}
	m.pl.m = cfg.Metrics
	for i, eng := range engs {
		r := &ring{q: queue.NewMPSC[event.Access](cfg.QueueCap)}
		if cfg.LockBased {
			r.mu = new(sync.Mutex)
		}
		m.rings = append(m.rings, r)
		m.pl.workers = append(m.pl.workers, &worker{id: i, in: r, eng: eng, m: cfg.Metrics})
	}
	// The first worker publishes the producers' collapse counts with its
	// own counters, in flight and at the merge (publishTelemetry).
	m.pl.workers[0].lanes = &m.lanes
	m.pl.startAll()
	return m, nil
}

// Access implements Profiler: the one-event batch, safe for concurrent use.
func (m *MT) Access(a event.Access) { m.spread([]event.Access{a}) }

// AccessBatch implements Profiler; safe for concurrent use, one caller per
// target thread. The batch is spread in BatchSize segments; with ranges,
// segments also end at RangeRef slots, which expand there (routeRange).
func (m *MT) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for len(accesses) > 0 {
		n := min(len(accesses), event.BatchSize)
		if len(ranges) > 0 {
			n = 0
			for n < len(accesses) && n < event.BatchSize && accesses[n].Kind != event.RangeRef {
				n++
			}
			if n == 0 {
				m.routeRange(&ranges[accesses[0].Addr])
				accesses = accesses[1:]
				continue
			}
		}
		m.spread(accesses[:n])
		accesses = accesses[n:]
	}
}

// routeRange counts r and expands its elements, in order, into BatchSize
// segments and routes those: a range costs what its points in a batch would.
func (m *MT) routeRange(r *event.Range) {
	if r.Count > 0 && (r.Kind == event.Read || r.Kind == event.Write) {
		l := &m.lanes[r.Thread&(mtLanes-1)]
		l.ranges.Add(1)
		l.rangeElems.Add(uint64(r.Count))
		if m.m != nil {
			m.m.Ranges.Inc()
			m.m.RangeElements.Add(uint64(r.Count))
		}
	}
	var buf [event.BatchSize]event.Access
	for j := uint32(0); j < r.Count; {
		n := 0
		for ; n < len(buf) && j < r.Count; n, j = n+1, j+1 {
			buf[n] = r.At(j)
		}
		m.spread(buf[:n])
	}
}

// spread pushes up to BatchSize events of one thread, in order, into their
// owners' rings: one pass lists each event under its owner (a row per ring,
// so the pass costs the same at any worker count), then ring by ring one put
// copies the ring's events in. One ring at a time: see MPSC.Claim. The rows
// come from a pool, so a segment zeroes nothing but the counts. Nothing
// reaches a ring before the segment is checked (refuseRangeRef,
// refuseStamps).
func (m *MT) spread(seg []event.Access) {
	nw := len(m.rings)
	if len(seg) == 1 {
		if seg[0].Kind == event.RangeRef {
			refuseRangeRef()
		}
		if seg[0].TS > event.MaxTS && m.raceCheck {
			refuseStamps()
		}
		m.rings[ownerOf(seg[0].Addr, nw, m.wMask)].put(seg, []uint16{0})
		return
	}
	rows := getRows(nw)
	cnt, idx := rows.cnt, rows.idx
	stamps := uint64(0)
	for i := range seg {
		a := &seg[i]
		if a.Kind == event.RangeRef {
			refuseRangeRef()
		}
		o := ownerOf(a.Addr, nw, m.wMask)
		idx[o*event.BatchSize+int(cnt[o])] = uint16(i)
		cnt[o]++
		stamps |= a.TS
	}
	if stamps > event.MaxTS && m.raceCheck {
		refuseStamps()
	}
	dups := uint64(0)
	for w, n := range cnt {
		if n > 0 {
			dups += m.rings[w].put(seg, idx[w*event.BatchSize:][:n])
		}
	}
	rowsPool.Put(rows)
	if dups > 0 {
		m.lanes[seg[0].Thread&(mtLanes-1)].collapsed.Add(dups)
	}
}

// Flush implements Profiler. It must be called after every target thread has
// finished (the interpreter joins them first), so no Access call can race
// with the flush sentinels.
func (m *MT) Flush() *Result {
	m.pl.beginFlush()
	for _, r := range m.rings {
		r.q.Push(event.Access{Kind: event.Flush})
	}
	m.pl.wg.Wait()

	var stats RunStats
	for l := range m.lanes {
		lane := &m.lanes[l]
		stats.DupCollapsed += lane.collapsed.Load()
		stats.Ranges += lane.ranges.Load()
		stats.RangeElements += lane.rangeElems.Load()
	}
	return m.pl.merge(stats)
}
