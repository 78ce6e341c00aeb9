package server

// The live session observatory: the daemon-side store behind `ddprof -watch`
// and the provenance query API. Every profiling session owns one observatory.
// The session's pipeline workers deliver their epoch-delta extractions here
// (core.Config.OnEpochDelta, called on worker goroutines); when all workers
// have reported an epoch, the observatory renders the epoch's union as one
// DDP1 payload (dep.EncodeUnion — byte-identical to encoding the merged
// delta), fans the frame out to watch subscribers, and folds the shards into
// its live store. Because every delta field is monotone under fold, the live
// store is at all times exactly the profile of the stream so far, and after
// the final frame it is byte-identical to the session's end-of-run profile —
// which is what lets the HTTP query endpoints answer from it without ever
// pausing ingest (readers take an RLock; ingest only writes at epoch
// completion).
//
// Completed sessions are retained for a while (obsRetained observatories,
// FIFO) so queries and diffs keep working after the client disconnected.

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/trace"
)

const (
	// subBuffer is a watch subscriber's frame queue depth. A subscriber that
	// falls this many frames behind is evicted rather than allowed to
	// backpressure the fan-out (and therefore the session's workers).
	subBuffer = 64
	// obsRetained is how many completed sessions' observatories the daemon
	// keeps queryable after the session ended.
	obsRetained = 16
)

// deltaSub is one watch subscriber. Frames are delivered through a buffered
// channel; the channel is closed after the final frame (or on session abort
// or slow-subscriber eviction), which ends the subscriber's serving loop.
type deltaSub struct {
	ch      chan obsFrame
	evicted bool
}

// obsFrame is one delta frame plus the refcount that returns its pooled
// payload buffer when every subscriber has written it out.
type obsFrame struct {
	trace.DeltaFrame
	pay *sharedPayload
}

// deltaBufPool recycles the DDP1 payload buffers the observatory renders
// epochs into; one buffer per epoch, shared across all subscribers, instead
// of an allocation per epoch (and before that, per epoch per subscriber).
var deltaBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// sharedPayload refcounts one epoch's encoded payload across the subscribers
// it was fanned out to. The frame's Payload slice aliases buf, so buf may
// only return to the pool after the last subscriber has released it. A frame
// stranded in an exited subscriber's channel is never released and simply
// falls to the GC; the pool just misses one buffer.
type sharedPayload struct {
	buf  *bytes.Buffer
	refs atomic.Int32
}

func newSharedPayload() *sharedPayload {
	p := &sharedPayload{buf: deltaBufPool.Get().(*bytes.Buffer)}
	p.buf.Reset()
	p.refs.Store(1) // the render-side owner reference
	return p
}

func (p *sharedPayload) retain() { p.refs.Add(1) }

func (p *sharedPayload) release() {
	if p != nil && p.refs.Add(-1) == 0 {
		deltaBufPool.Put(p.buf)
	}
}

// pendingEpoch assembles one epoch's per-worker deltas until all workers
// have reported it.
type pendingEpoch struct {
	shards []*dep.Set
	loops  []map[prog.LoopID]*dep.Set
	bounds [][]core.VarBounds
}

// observatory is the live store of one profiling session.
type observatory struct {
	sessionID uint64
	workers   int        // deltas per epoch before it is complete
	tab       *loc.Table // session variable table, for frame/row rendering

	mu      sync.RWMutex
	live    *dep.Set                 // fold of every completed delta so far
	loops   map[prog.LoopID]*dep.Set // per-loop carried-key folds
	bounds  map[loc.VarID][2]uint64  // observed [lo,hi] address interval per var
	epoch   uint32                   // latest completed epoch
	pending map[uint32]*pendingEpoch
	subs    map[*deltaSub]struct{}
	done    bool // final frame delivered; live is the exact final profile
	aborted bool // session evicted before completing
}

func newObservatory(sessionID uint64, workers int, varNames []string) *observatory {
	tab := loc.NewTable()
	for _, n := range varNames {
		tab.Var(n)
	}
	return &observatory{
		sessionID: sessionID,
		workers:   workers,
		tab:       tab,
		live:      dep.NewSet(),
		loops:     make(map[prog.LoopID]*dep.Set),
		bounds:    make(map[loc.VarID][2]uint64),
		pending:   make(map[uint32]*pendingEpoch),
		subs:      make(map[*deltaSub]struct{}),
	}
}

// offer receives one worker's epoch-delta. Called concurrently from worker
// goroutines; the epoch completes when all workers have reported it.
func (o *observatory) offer(d *core.EpochDelta) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done || o.aborted {
		releaseDelta(d)
		return
	}
	p := o.pending[d.Epoch]
	if p == nil {
		p = &pendingEpoch{}
		o.pending[d.Epoch] = p
	}
	p.shards = append(p.shards, d.Deps)
	p.loops = append(p.loops, d.Loops)
	p.bounds = append(p.bounds, d.Bounds)
	if len(p.shards) == o.workers {
		delete(o.pending, d.Epoch)
		o.completeLocked(d.Epoch, p, false)
	}
}

// finish closes the observatory with the session's final remainder delta —
// what the merged end-of-run profile still held unshipped. The final frame is
// always emitted (even empty), then every subscriber's channel closes.
func (o *observatory) finish(d *core.EpochDelta) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done || o.aborted {
		releaseDelta(d)
		return
	}
	// A straggler epoch that never assembled (can't happen with a correct
	// pipeline, but a defensive fold keeps the live store exact regardless).
	for e, p := range o.pending {
		delete(o.pending, e)
		o.foldLocked(p)
	}
	p := &pendingEpoch{
		shards: []*dep.Set{d.Deps},
		loops:  []map[prog.LoopID]*dep.Set{d.Loops},
		bounds: [][]core.VarBounds{d.Bounds},
	}
	o.completeLocked(d.Epoch, p, true)
	o.done = true
	for sub := range o.subs {
		if !sub.evicted {
			close(sub.ch)
			sub.evicted = true
		}
	}
}

// abort tears the observatory down without a final frame: subscribers see
// their stream end with no frame marked final and know the session died.
func (o *observatory) abort() {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.done || o.aborted {
		return
	}
	o.aborted = true
	for e, p := range o.pending {
		delete(o.pending, e)
		o.foldLocked(p)
	}
	for sub := range o.subs {
		if !sub.evicted {
			close(sub.ch)
			sub.evicted = true
		}
	}
}

// completeLocked renders one completed epoch as a delta frame, fans it out,
// and folds the shards into the live store. Non-final epochs with nothing to
// report produce no frame (quiet epochs cost subscribers nothing); the final
// frame is always sent.
func (o *observatory) completeLocked(epoch uint32, p *pendingEpoch, final bool) {
	nonEmpty := false
	for _, sh := range p.shards {
		if sh != nil && sh.Unique() > 0 {
			nonEmpty = true
			break
		}
	}
	if nonEmpty || final {
		pay := newSharedPayload()
		if err := dep.EncodeUnion(pay.buf, o.tab, nil, p.shards...); err == nil {
			f := obsFrame{
				DeltaFrame: trace.DeltaFrame{Epoch: epoch, Final: final, Payload: pay.buf.Bytes()},
				pay:        pay,
			}
			for sub := range o.subs {
				if sub.evicted {
					continue
				}
				pay.retain()
				select {
				case sub.ch <- f:
				default:
					// Slow subscriber: evict rather than stall the fan-out.
					pay.release()
					close(sub.ch)
					sub.evicted = true
				}
			}
		}
		pay.release() // drop the owner reference
	}
	o.foldLocked(p)
	if epoch > o.epoch {
		o.epoch = epoch
	}
}

// foldLocked merges a pending epoch's shards into the live store and releases
// them. Merge preserves provenance: entry epoch stamps take the minimum, so
// RangeSince answers "first observed since epoch E" over the fold.
func (o *observatory) foldLocked(p *pendingEpoch) {
	for _, sh := range p.shards {
		if sh != nil {
			o.live.Merge(sh)
			sh.Release()
		}
	}
	for _, lm := range p.loops {
		for id, ks := range lm {
			dst := o.loops[id]
			if dst == nil {
				dst = dep.NewSet()
				o.loops[id] = dst
			}
			dst.Merge(ks)
			ks.Release()
		}
	}
	for _, bs := range p.bounds {
		for _, b := range bs {
			if cur, ok := o.bounds[b.Var]; ok {
				if cur[0] < b.Lo {
					b.Lo = cur[0]
				}
				if cur[1] > b.Hi {
					b.Hi = cur[1]
				}
			}
			o.bounds[b.Var] = [2]uint64{b.Lo, b.Hi}
		}
	}
}

// releaseDelta returns a delta's sets to the slab pool.
func releaseDelta(d *core.EpochDelta) {
	if d.Deps != nil {
		d.Deps.Release()
	}
	for _, ks := range d.Loops {
		ks.Release()
	}
}

// release hands the observatory's storage back to the slab pool. Only called
// after the observatory left the daemon's table.
func (o *observatory) release() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.live.Release()
	for _, ks := range o.loops {
		ks.Release()
	}
	o.loops = nil
}

// active reports whether the session is still ingesting.
func (o *observatory) active() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return !o.done && !o.aborted
}

// isAborted reports whether the session died before completing.
func (o *observatory) isAborted() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.aborted
}

// subscribe attaches a watch subscriber. The catch-up frame — the live store
// as of now, restricted to dependences first observed at epoch since or later
// — is rendered under the same lock that registers the subscriber, so the
// frame and the subscription cut the stream at the same point: catch-up plus
// subsequent delta frames fold to the exact profile (for since == 0). done
// reports that the session already ended — the catch-up frame is final and
// the channel is already closed.
func (o *observatory) subscribe(since uint32) (catchup *obsFrame, sub *deltaSub, done bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	sub = &deltaSub{ch: make(chan obsFrame, subBuffer)}
	if !o.done && !o.aborted {
		o.subs[sub] = struct{}{}
	} else {
		close(sub.ch)
		sub.evicted = true
	}
	if o.live.Unique() > 0 || o.done {
		pay := newSharedPayload()
		var err error
		if since == 0 {
			err = dep.Encode(pay.buf, o.live, o.tab, nil)
		} else {
			tmp := dep.NewSet()
			o.live.RangeSince(since, func(k dep.Key, st dep.Stats, _ uint32) bool {
				*tmp.Ref(k) = st
				return true
			})
			err = dep.Encode(pay.buf, tmp, o.tab, nil)
			tmp.Release()
		}
		if err == nil {
			// The owner reference transfers to the caller, released after
			// the catch-up frame is written out.
			catchup = &obsFrame{
				DeltaFrame: trace.DeltaFrame{Epoch: o.epoch, Final: o.done, Payload: pay.buf.Bytes()},
				pay:        pay,
			}
		} else {
			pay.release()
		}
	}
	return catchup, sub, o.done || o.aborted
}

// unsubscribe detaches a subscriber; idempotent with eviction and close.
func (o *observatory) unsubscribe(sub *deltaSub) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.subs[sub]; ok {
		delete(o.subs, sub)
		if !sub.evicted {
			close(sub.ch)
			sub.evicted = true
		}
	}
}

// depRow is the JSON wire form of one dependence aggregate.
type depRow struct {
	Sink       uint32 `json:"sink"`
	Src        uint32 `json:"src"`
	Type       string `json:"type"`
	Var        string `json:"var"`
	SinkThread int16  `json:"sink_thread,omitempty"`
	SrcThread  int16  `json:"src_thread,omitempty"`
	Count      uint64 `json:"count"`
	Carried    bool   `json:"carried"`
	Reduction  bool   `json:"reduction,omitempty"`
	Race       bool   `json:"race,omitempty"`
	MinDist    uint32 `json:"min_dist"`
	MaxDist    uint32 `json:"max_dist"`
	Epoch      uint32 `json:"epoch"`
}

func (o *observatory) row(k dep.Key, st dep.Stats, epoch uint32) depRow {
	return depRow{
		Sink:       uint32(k.Sink),
		Src:        uint32(k.Src),
		Type:       k.Type.String(),
		Var:        o.tab.VarName(k.Var),
		SinkThread: k.SinkThread,
		SrcThread:  k.SrcThread,
		Count:      st.Count,
		Carried:    st.Carried,
		Reduction:  st.Reduction,
		Race:       st.Reversed,
		MinDist:    st.MinDist,
		MaxDist:    st.MaxDist,
		Epoch:      epoch,
	}
}

// depsPage is the JSON reply of GET /sessions/{id}/deps and the dependence
// half of GET /sessions/{id}/addr.
type depsPage struct {
	Session uint64   `json:"session"`
	Epoch   uint32   `json:"epoch"`
	Final   bool     `json:"final"`
	Unique  int      `json:"unique"` // distinct dependences in the live store
	Deps    []depRow `json:"deps"`
}

// depsSince answers "which dependences were first observed at epoch since or
// later", from the live store, without pausing ingest.
func (o *observatory) depsSince(since uint32) depsPage {
	o.mu.RLock()
	defer o.mu.RUnlock()
	page := depsPage{Session: o.sessionID, Epoch: o.epoch, Final: o.done, Unique: o.live.Unique(), Deps: []depRow{}}
	o.live.RangeSince(since, func(k dep.Key, st dep.Stats, e uint32) bool {
		page.Deps = append(page.Deps, o.row(k, st, e))
		return true
	})
	return page
}

// loopPage is the JSON reply of GET /sessions/{id}/loop/{loop}/carried.
type loopPage struct {
	Session uint64   `json:"session"`
	Loop    uint16   `json:"loop"`
	Epoch   uint32   `json:"epoch"`
	Final   bool     `json:"final"`
	Carried []depRow `json:"carried"`
}

// loopCarried answers "what does loop L carry right now": the fold of the
// per-loop carried-key deltas the workers have shipped.
func (o *observatory) loopCarried(loop prog.LoopID) loopPage {
	o.mu.RLock()
	defer o.mu.RUnlock()
	page := loopPage{Session: o.sessionID, Loop: uint16(loop), Epoch: o.epoch, Final: o.done, Carried: []depRow{}}
	if ks := o.loops[loop]; ks != nil {
		ks.RangeSince(0, func(k dep.Key, st dep.Stats, e uint32) bool {
			page.Carried = append(page.Carried, o.row(k, st, e))
			return true
		})
	}
	return page
}

// varBoundsRow is one variable's observed address interval.
type varBoundsRow struct {
	Var string `json:"var"`
	Lo  uint64 `json:"lo"`
	Hi  uint64 `json:"hi"`
}

// addrPage is the JSON reply of GET /sessions/{id}/addr?lo=&hi=.
type addrPage struct {
	Session uint64         `json:"session"`
	Lo      uint64         `json:"lo"`
	Hi      uint64         `json:"hi"`
	Vars    []varBoundsRow `json:"vars"`
	Deps    []depRow       `json:"deps"`
}

// addrQuery answers "which dependences touch addresses in [lo, hi]": the
// variables whose observed address interval intersects the query window, and
// every live dependence on those variables. Bounds come from the workers'
// per-variable interval tracking (EpochDelta.Bounds, kept by every engine
// whose pipeline has a delta sink), delivered with each epoch delta.
func (o *observatory) addrQuery(lo, hi uint64) addrPage {
	o.mu.RLock()
	defer o.mu.RUnlock()
	page := addrPage{Session: o.sessionID, Lo: lo, Hi: hi, Vars: []varBoundsRow{}, Deps: []depRow{}}
	hit := make(map[loc.VarID]bool, len(o.bounds))
	for v, b := range o.bounds {
		if b[0] <= hi && b[1] >= lo {
			hit[v] = true
			page.Vars = append(page.Vars, varBoundsRow{Var: o.tab.VarName(v), Lo: b[0], Hi: b[1]})
		}
	}
	o.live.RangeSince(0, func(k dep.Key, st dep.Stats, e uint32) bool {
		if hit[k.Var] {
			page.Deps = append(page.Deps, o.row(k, st, e))
		}
		return true
	})
	return page
}

// diffPage is the JSON reply of POST /sessions/{id}/diff.
type diffPage struct {
	Session uint64 `json:"session"`
	Epoch   uint32 `json:"epoch"`
	Final   bool   `json:"final"`
	// Common counts dependences present in both the baseline and the live
	// profile; OnlyBaseline / OnlyLive list the keys unique to each side.
	Common       int      `json:"common"`
	Identical    bool     `json:"identical"`
	OnlyBaseline []depRow `json:"only_baseline"`
	OnlyLive     []depRow `json:"only_live"`
}

// diffAgainst merge-joins a stored DDP1 baseline against the session's live
// profile — ddiff's comparison, promoted to a daemon capability. The live
// side is encoded under the read lock (ingest never pauses), then both sides
// stream through dep.DiffStreams.
func (o *observatory) diffAgainst(baseline []byte) (diffPage, error) {
	o.mu.RLock()
	var buf bytes.Buffer
	err := dep.Encode(&buf, o.live, o.tab, nil)
	page := diffPage{Session: o.sessionID, Epoch: o.epoch, Final: o.done}
	o.mu.RUnlock()
	if err != nil {
		return page, err
	}
	da, err := dep.NewDecoder(bytes.NewReader(baseline))
	if err != nil {
		return page, fmt.Errorf("baseline profile: %w", err)
	}
	db, err := dep.NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return page, err
	}
	r, err := dep.DiffStreams(da, db)
	if err != nil {
		return page, err
	}
	page.Common = r.Common
	page.Identical = r.Identical()
	page.OnlyBaseline = make([]depRow, 0, len(r.OnlyA))
	for _, k := range r.OnlyA {
		// Baseline-only keys resolve names against the baseline's own table.
		row := depRow{Sink: uint32(k.Sink), Src: uint32(k.Src), Type: k.Type.String(),
			Var: da.Table().VarName(k.Var), SinkThread: k.SinkThread, SrcThread: k.SrcThread}
		page.OnlyBaseline = append(page.OnlyBaseline, row)
	}
	page.OnlyLive = make([]depRow, 0, len(r.OnlyB))
	o.mu.RLock()
	for _, k := range r.OnlyB {
		st, _ := o.live.Lookup(k)
		page.OnlyLive = append(page.OnlyLive, o.row(k, st, 0))
	}
	o.mu.RUnlock()
	return page, nil
}
