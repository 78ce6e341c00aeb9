package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/queue"
	"ddprof/internal/sig"
	"ddprof/internal/stride"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
)

const (
	ledgerRounds = 3       // interleaved raw / hook / profiled executions per program
	queueOps     = 1 << 19 // transfers per queue micro-measurement
)

// ledger accumulates, over a workload's programs, the time each module takes
// for the programs' own event streams. Every entry is summed nanoseconds at
// nominal machine speed (each step is bracketed by yardstick samples, like
// the end-to-end intervals it is set against); dividing by events gives the
// event-weighted ns/event, the same weighting events_per_s has.
type ledger struct {
	events float64            // accesses in the captured streams
	ns     map[string]float64 // layer -> nanoseconds over all programs
	// profiledNs is the untraced Profile interval taken in the same rounds as
	// vm.raw, for the paper's slowdown factor.
	profiledNs float64

	addresses, slots int
	storeBytes       uint64
	occupancy        []float64 // per program
	cacheHits        uint64
	cacheProbes      uint64
	traceBytes       int
	batches          int
}

// lockedHook serializes a threaded target's accesses into a hook that is not
// safe for concurrent callers (event.Recorder).
type lockedHook struct {
	mu sync.Mutex
	h  event.Hook
}

func (l *lockedHook) Access(a event.Access) {
	l.mu.Lock()
	l.h.Access(a)
	l.mu.Unlock()
}

// timed runs f under a span and returns how long it took, in nanoseconds at
// nominal machine speed.
func (e *env) timed(tr *tracer, name string, f func()) float64 {
	return e.timedPart(tr, name, func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	})
}

// timedPart is timed for a step that clocks part of itself: f returns the
// duration to count.
func (e *env) timedPart(tr *tracer, name string, f func() time.Duration) float64 {
	before := e.yardstick()
	s := tr.begin(name)
	d := f()
	tr.end(s)
	return float64(d) / machineSpeed(before, e.yardstick())
}

// batches calls f on consecutive chunk-sized slices of evs — the granularity
// at which the producer and the daemon hand events to AccessBatch.
func batches(evs []event.Access, f func([]event.Access)) {
	for len(evs) > 0 {
		n := min(event.ChunkSize, len(evs))
		f(evs[:n])
		evs = evs[n:]
	}
}

func isData(a *event.Access) bool { return a.Kind == event.Read || a.Kind == event.Write }

// program prices every module on one target: it captures the target's event
// stream once and replays it into each module's public API, outside in.
func (l *ledger) program(e *env, t *target, tr *tracer) error {
	root := tr.begin("ledger:" + t.name)
	defer tr.end(root)
	w, opts := e.w, e.w.runOptions()

	// The collection side: raw execution, execution into a no-op hook, and
	// the whole profile, interleaved so all three see the same machine.
	execute := func(layer string, h event.Hook) (float64, error) {
		var err error
		ns := e.timed(tr, layer, func() { _, err = vm.Run(t.prog, h, opts) })
		return ns, err
	}
	var raw, hooked, profiled []float64
	for i := 0; i < ledgerRounds; i++ {
		d, err := execute("ledger:vm.raw", nil)
		if err != nil {
			return err
		}
		raw = append(raw, d)
		if d, err = execute("ledger:event.hook", event.HookFunc(func(event.Access) {})); err != nil {
			return err
		}
		hooked = append(hooked, d)
		p, err := e.profileOne(t, nil)
		if err != nil {
			return err
		}
		profiled = append(profiled, 1e9*p.wallRef)
	}
	l.ns["vm.raw"] += median(raw)
	l.ns["event.hook"] += median(hooked) - median(raw)
	l.profiledNs += median(profiled)

	rec := event.NewRecorder()
	var hook event.Hook = rec
	if w.via == viaMT {
		hook = &lockedHook{h: rec}
	}
	if _, err := execute("ledger:capture", hook); err != nil {
		return err
	}
	evs := rec.Events()
	if w.tight && rec.Addresses() != t.addresses {
		return fmt.Errorf("set-up's census counted %d addresses, event.Recorder %d", t.addresses, rec.Addresses())
	}
	l.events += float64(t.events)
	l.addresses += rec.Addresses()
	l.slots += t.slots

	// The analysis side, serial path: the store alone, then the engine over
	// a fresh store (engine = that minus the store).
	store, err := sig.OpenStore("", t.slots)
	if err != nil {
		return err
	}
	storeNs := e.timed(tr, "ledger:sig.store", func() { sink += replayStore(store, evs) })
	l.ns["sig.store"] += storeNs
	l.storeBytes = max(l.storeBytes, store.Bytes())
	if o, ok := store.(interface{ Occupancy() float64 }); ok {
		l.occupancy = append(l.occupancy, 100*o.Occupancy())
	}

	store, err = sig.OpenStore("", t.slots)
	if err != nil {
		return err
	}
	eng := core.NewEngine(store, t.prog.Meta, w.via == viaMT)
	engNs := e.timed(tr, "ledger:core.engine", func() {
		for i := range evs {
			eng.Process(evs[i])
		}
	})
	l.ns["core.engine"] += engNs - storeNs
	hits, probes := eng.CacheStats()
	l.cacheHits += hits
	l.cacheProbes += probes
	sink += eng.Deps().Unique()

	switch w.via {
	case viaSerial:
		if err := l.serialReplay(e, t, tr, "core.serial", func(f func([]event.Access, []event.Range)) {
			batches(evs, func(b []event.Access) { f(b, nil) })
		}); err != nil {
			return err
		}
	case viaParallel:
		prof, err := core.New(w.coreConfig(t))
		if err != nil {
			return err
		}
		// Caller time inside AccessBatch, blocked-on-full-queue included:
		// what the target's thread pays the pipeline per access.
		l.ns["core.producer"] += e.timedPart(tr, "ledger:core.producer", func() (inside time.Duration) {
			batches(evs, func(b []event.Access) {
				t0 := time.Now()
				prof.AccessBatch(b, nil)
				inside += time.Since(t0)
			})
			sink += prof.Flush().Deps.Unique()
			return inside
		})

		var dets [1024]stride.Detector
		l.ns["stride.track"] += e.timed(tr, "ledger:stride.track", func() {
			for i := range evs {
				if a := &evs[i]; isData(a) {
					// One detector per instruction, as the producer keeps them.
					sink += int(dets[(uint32(a.Loc)*2654435761)>>22].Track(a.Addr))
				}
			}
		})
	case viaRemote:
		if err := l.wire(e, t, tr, evs); err != nil {
			return err
		}
	}
	return nil
}

// sink receives the replays' results so the compiler cannot drop the calls.
var sink int

// replayStore drives the probe/update pattern of Algorithm 1 on a store
// alone: a read probes the write slot and records itself; a write probes
// both slots and records itself. It returns the hit count so the probes
// cannot be optimized away.
func replayStore(st sig.Store, evs []event.Access) (hits int) {
	for i := range evs {
		a := &evs[i]
		switch a.Kind {
		case event.Read:
			if _, ok := st.LookupWrite(a.Addr); ok {
				hits++
			}
			st.SetRead(a.Addr, sig.PackSlot(a.Loc, a.Var, a.Thread, a.CtxID, a.IterVec, a.TS))
		case event.Write:
			if _, ok := st.LookupWrite(a.Addr); ok {
				hits++
			}
			if _, ok := st.LookupRead(a.Addr); ok {
				hits++
			}
			st.SetWrite(a.Addr, sig.PackSlot(a.Loc, a.Var, a.Thread, a.CtxID, a.IterVec, a.TS))
		case event.Remove:
			st.Remove(a.Addr)
		}
	}
	return hits
}

// serialReplay times a serial profiler over batches feed supplies, Flush
// included, under the given layer name.
func (l *ledger) serialReplay(e *env, t *target, tr *tracer, layer string, feed func(func([]event.Access, []event.Range))) error {
	cfg := e.w.coreConfig(t)
	cfg.Mode, cfg.Workers, cfg.SlotsPerWorker = core.ModeSerial, 1, t.slots
	prof, err := core.New(cfg)
	if err != nil {
		return err
	}
	l.ns[layer] += e.timed(tr, "ledger:"+layer, func() {
		feed(prof.AccessBatch)
		prof.Flush()
	})
	return nil
}

// wire prices the remote path's own stages on one stream: the client's
// compacting DDT1 encode, the daemon's NextBatch decode, and the decoded
// chunks going into AccessBatch.
func (l *ledger) wire(e *env, t *target, tr *tracer, evs []event.Access) error {
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf)
	if err != nil {
		return err
	}
	cw := trace.NewCompactor(tw)
	l.ns["trace.encode"] += e.timed(tr, "ledger:trace.encode", func() {
		for i := range evs {
			cw.Access(evs[i])
		}
		err = cw.Close()
	})
	if err != nil {
		return err
	}
	l.traceBytes += buf.Len()

	// A bufio layer of one default frame gives NextBatch the windowed decode
	// and the batch cadence it has in the daemon. (Handed the bytes.Reader
	// directly, trace.NewReader takes it for a ByteScanner and decodes a
	// byte at a time: 175 against 33 ns/event on these streams.)
	rd, err := trace.NewReader(bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 1<<16))
	if err != nil {
		return err
	}
	var chunks []*event.Chunk
	l.ns["trace.decode"] += e.timedPart(tr, "ledger:trace.decode", func() (inside time.Duration) {
		for err == nil {
			c := event.NewChunk() // allocated outside the clock: the daemon pools them
			var n int
			t0 := time.Now()
			n, err = rd.NextBatch(c)
			inside += time.Since(t0)
			if n > 0 {
				chunks = append(chunks, c)
			}
		}
		return inside
	})
	if err != io.EOF {
		return fmt.Errorf("decoding the captured trace: %w", err)
	}
	l.batches += len(chunks)

	return l.serialReplay(e, t, tr, "core.batch", func(f func([]event.Access, []event.Range)) {
		for _, c := range chunks {
			f(c.Events, c.Ranges)
		}
	})
}

// spscTransfer hands queueOps chunk pointers from a producer goroutine to a
// consumer goroutine through queue.SPSC, at the pipeline's default depth and
// wait policy, and returns how long that took.
func spscTransfer() time.Duration {
	q := queue.NewSPSC[*event.Chunk](64)
	c := event.NewChunk()
	return transfer(func() { q.Push(c) }, func() bool { _, ok := q.TryPop(); return ok })
}

// mpscTransfer is the same for accesses through queue.MPSC at the MT
// pipeline's default depth — the push §V pays on every access.
func mpscTransfer() time.Duration {
	q := queue.NewMPSC[event.Access](1 << 12)
	var a event.Access
	return transfer(func() { q.Push(a) }, func() bool { _, ok := q.TryPop(); return ok })
}

// transfer pushes queueOps items from this goroutine while another pops
// them, and returns the time from the first push to the last pop.
func transfer(push func(), tryPop func() bool) time.Duration {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for got, idle := 0, 0; got < queueOps; {
			if tryPop() {
				got, idle = got+1, 0
				continue
			}
			idle++
			queue.Backoff(idle)
		}
	}()
	t0 := time.Now()
	for i := 0; i < queueOps; i++ {
		push()
	}
	<-done
	return time.Since(t0)
}
