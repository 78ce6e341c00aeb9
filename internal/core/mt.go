package core

import (
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
// As a pipeline composition, MT is run rings into the same engine workers as
// Parallel, which read the runs in place. The target's threads collapse
// duplicate reads as they copy a batch in (the §IV producer's filter, per
// batch); ownership is the fixed ownerOf rule, so they share nothing but the
// rings.
type MT struct {
	pl    pipeline
	rings []*queue.MPSC[event.Access] // rings[i] is worker i's transport
	wMask uint64                      // len(rings)-1 when that is a power of two, else 0 (see ownerOf)
	m     *telemetry.Pipeline

	// lanes stripes the producers' duplicate-read counters by target thread,
	// off each other's cache lines and the fields above, hence the pad.
	_     [64]byte
	lanes [mtLanes]mtLane
}

// mtLanes is the number of producer lanes; a target thread uses lane
// Thread & (mtLanes-1). Threads that share a lane stay correct (the
// counters are atomic), they just share a line again.
const mtLanes = 16

// mtLane is one producer lane's counter, alone on its cache lines (128
// bytes: no two lanes' counters share a line at any 8-byte alignment, and
// the adjacent-line prefetcher pairs lines).
type mtLane struct {
	// collapsed counts the duplicate reads the lane's producers folded away,
	// added once per batch.
	collapsed atomic.Uint64
	_         [120]byte
}

// newMT builds the MT pipeline and starts the workers. RaceCheck is always on:
// the stamps it needs are already being collected.
func newMT(cfg Config) (*MT, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	cfg.RaceCheck = true
	engs, err := makeEngines(&cfg, cfg.Workers)
	if err != nil {
		return nil, err
	}
	m := &MT{m: cfg.Metrics, wMask: powerOfTwoMask(cfg.Workers)}
	m.pl.m = cfg.Metrics
	for i, eng := range engs {
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
	return m, nil
}

// Access implements Profiler: the one-event batch, safe for concurrent use.
func (m *MT) Access(a event.Access) { m.spread([]event.Access{a}) }

// AccessBatch implements Profiler; safe for concurrent use, one caller per
// target thread. RangeRef slots expand at their position (routeRange).
func (m *MT) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for len(accesses) > 0 {
		n := 0
		for n < len(accesses) && n < event.BatchSize && accesses[n].Kind != event.RangeRef {
			n++
		}
		if n > 0 {
			m.spread(accesses[:n])
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
		m.spread(buf[:n])
	}
}

// spread pushes up to BatchSize events of one thread, in order, into their
// owners' rings: a stable counting sort of the events by owner, then ring by
// ring one Claim for all of the ring's events, which are copied into the ring
// in event order — an exact duplicate read folding into the copy before it
// (dupRead) — and published part by part: one part unless the run wraps or
// outgrows the ring. One ring at a time: see MPSC.Claim.
func (m *MT) spread(seg []event.Access) {
	nw := len(m.rings)
	if len(seg) == 1 {
		if seg[0].TS > event.MaxTS {
			refuseStamps()
		}
		m.rings[ownerOf(seg[0].Addr, nw, m.wMask)].Push(seg[0])
		return
	}
	var own [event.BatchSize]int32
	var order [event.BatchSize]uint16
	var few [16]uint16
	end := few[:min(len(few), nw)] // end[w]: where ring w's events end in order
	if nw > len(few) {
		end = make([]uint16, nw)
	}
	stamps := uint64(0)
	for i := range seg {
		own[i] = int32(ownerOf(seg[i].Addr, nw, m.wMask))
		end[own[i]]++
		stamps |= seg[i].TS
	}
	if stamps > event.MaxTS {
		refuseStamps()
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
		m.lanes[seg[0].Thread&(mtLanes-1)].collapsed.Add(dups)
	}
}

// Flush implements Profiler. It must be called after every target thread has
// finished (the interpreter joins them first), so no Access call can race
// with the flush sentinels.
func (m *MT) Flush() *Result {
	m.pl.beginFlush()
	for _, q := range m.rings {
		q.Push(event.Access{Kind: event.Flush})
	}
	m.pl.wg.Wait()

	var stats RunStats
	for l := range m.lanes {
		stats.DupCollapsed += m.lanes[l].collapsed.Load()
	}
	if m.m != nil && stats.DupCollapsed > 0 {
		m.m.DupCollapsed.Add(stats.DupCollapsed)
	}
	// sumAccesses: counting on the consumer side keeps the concurrent
	// producers free of a shared atomic counter; the flush barrier makes the
	// per-worker sums safe to read.
	return m.pl.merge(stats, true)
}
