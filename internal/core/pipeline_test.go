package core

import (
	"strings"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
)

// Both carriers answer the whole worker-side contract.
var (
	_ transport = (*chunkTransport)(nil)
	_ transport = (*ringTransport)(nil)
)

// TestConfigValidation exercises the centralized Config checks: New funnels
// every mode through normalize/makeStores, so a bad configuration fails with
// the same descriptive error everywhere. Mode 3 was the existence pipeline; it
// is refused like any other unknown mode.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"negative workers", Config{Mode: ModeParallel, Workers: -1}, "Workers"},
		{"negative queue cap", Config{Mode: ModeMT, QueueCap: -3}, "QueueCap"},
		{"negative slots", Config{Mode: ModeSerial, SlotsPerWorker: -5}, "SlotsPerWorker"},
		{"bad backend spec", Config{Mode: ModeParallel, Workers: 1, Backend: "no-such-backend"}, "Config.Backend"},
		{"retired mode", Config{Mode: 3}, "unknown Mode"},
		{"unknown mode", Config{Mode: Mode(42)}, "unknown Mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("New(%+v) = %T, want error", tc.cfg, p)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewDispatch drives each mode end-to-end through the unified
// constructor.
func TestNewDispatch(t *testing.T) {
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		t.Run(mode.String(), func(t *testing.T) {
			p, err := New(Config{Mode: mode, Workers: 2, Backend: "perfect"})
			if err != nil {
				t.Fatal(err)
			}
			p.Access(event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1), TS: 1})
			p.Access(event.Access{Addr: 0x100, Kind: event.Read, Loc: loc.Pack(1, 2), TS: 2})
			res := p.Flush()
			if res.Stats.Accesses != 2 {
				t.Errorf("accesses = %d, want 2", res.Stats.Accesses)
			}
			if res.Deps.Unique() == 0 {
				t.Error("no dependences detected")
			}
		})
	}
}

// TestDoubleFlushPanicsEveryMode: the pipeline chassis centralizes the
// double-flush guard, so all three variants fail identically.
func TestDoubleFlushPanicsEveryMode(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: second Flush did not panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "Flush called twice") {
				t.Errorf("%s: panic %v does not mention double flush", name, r)
			}
		}()
		f()
	}
	s := mustNew(t, Config{Backend: "perfect"})
	s.Flush()
	expectPanic("serial", func() { s.Flush() })
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: "perfect"})
	p.Flush()
	expectPanic("parallel", func() { p.Flush() })
	m := mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect"})
	m.Flush()
	expectPanic("mt", func() { m.Flush() })
}

// TestMTPublishesTelemetry closes the MT observability gap: before the
// pipeline unification, MT.Flush published neither signature occupancy nor
// per-worker queue depths. Both now flow through the shared merge stage.
func TestMTPublishesTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	m := mustNew(t, Config{Mode: ModeMT, Workers: 2, SlotsPerWorker: 1 << 10, Metrics: pipe})
	var ts uint64
	for i := 0; i < 4096; i++ {
		ts++
		m.Access(event.Access{Addr: uint64(0x1000 + 8*i), Kind: event.Write, Loc: loc.Pack(1, 1), TS: ts})
	}
	res := m.Flush()
	if got := pipe.Events.Load(); got != 4096 {
		t.Errorf("events_total = %d, want 4096", got)
	}
	if pipe.QueueDepthMax.Load() == 0 {
		t.Error("queue_depth_max gauge not published")
	}
	seen := false
	for i := 0; i < 2; i++ {
		if pipe.QueueDepth[i].Load() > 0 {
			seen = true
		}
	}
	if !seen {
		t.Error("no per-worker queue-depth gauge published")
	}
	if pipe.SigOccupancyPermille.Load() == 0 {
		t.Error("signature occupancy gauge not published")
	}
	if len(res.WorkerEvents) != 2 {
		t.Errorf("WorkerEvents = %v, want per-worker counts", res.WorkerEvents)
	}
}

// TestMTDupCollapse: the target's threads collapse consecutive identical
// reads as they copy a batch into the rings (the §IV producer's filter). The
// profile is byte-identical — the engine replays the multiplicity — and the
// per-event adapter, a batch of one with nothing to collapse, gives the same.
func TestMTDupCollapse(t *testing.T) {
	const reads = 5000
	evs := make([]event.Access, 0, reads+1)
	evs = append(evs, event.Access{Addr: 0x800, Kind: event.Write, Loc: loc.Pack(1, 1)})
	for i := 0; i < reads; i++ {
		// Untimestamped identical reads, as a sequential replay would push.
		evs = append(evs, event.Access{Addr: 0x800, Kind: event.Read, Loc: loc.Pack(1, 2)})
	}
	want := runSerial(t, evs)

	m := mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect"})
	m.AccessBatch(evs, nil)
	got := m.Flush()
	depsEqual(t, want.Deps, got.Deps, "mt-collapsed")
	if got.Stats.Accesses != reads+1 {
		t.Errorf("accesses = %d, want %d (collapse must preserve logical counts)", got.Stats.Accesses, reads+1)
	}
	// One read survives per BatchSize segment of the batch.
	if segs := uint64((len(evs) + event.BatchSize - 1) / event.BatchSize); got.Stats.DupCollapsed != reads-segs {
		t.Errorf("DupCollapsed = %d on an all-duplicate stream of %d segments, want %d", got.Stats.DupCollapsed, segs, reads-segs)
	}

	perEvent := feed(mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect"}), evs)
	depsEqual(t, want.Deps, perEvent.Deps, "mt-per-event")
	if perEvent.Stats.Accesses != reads+1 {
		t.Errorf("per-event accesses = %d, want %d", perEvent.Stats.Accesses, reads+1)
	}

	// With distinct stamps nothing may collapse: the equality covers TS, so
	// reads from different sync epochs stay distinct. (Equal stamps do
	// collapse: TestMTCollapsesStampedReads.)
	m2 := mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect"})
	for i := range evs {
		evs[i].TS = uint64(i + 1)
	}
	m2.AccessBatch(evs, nil)
	if got2 := m2.Flush(); got2.Stats.DupCollapsed != 0 {
		t.Errorf("collapsed %d timestamped accesses", got2.Stats.DupCollapsed)
	}
}

// TestChunkPoolBounded: the pool holds at most an open chunk, a chunk in
// processing and a full inbound queue per worker, whichever workers the
// chunks were allocated for — a stream that feeds worker 0 alone and then
// worker 1 alone reuses the first phase's chunks in the second. The end of
// the stream allocates nothing (the flush sentinels ride the open chunks),
// and no chunk is ever dropped, so QueueBytes is the live pool.
func TestChunkPoolBounded(t *testing.T) {
	const workers, qcap, perPhase = 2, 8, 40 * event.ChunkSize
	p := mustNew(t, Config{Mode: ModeParallel, Workers: workers, QueueCap: qcap, Backend: "perfect"}).(*Parallel)
	batch := make([]event.Access, event.BatchSize)
	for phase := uint64(0); phase < workers; phase++ {
		for n := 0; n < perPhase; n += len(batch) {
			for i := range batch {
				word := uint64(n+i) % 1024 * workers // owner 0; +phase: owner phase
				batch[i] = event.Access{Addr: 0x10000 + 8*(word+phase), Kind: event.Write, Loc: loc.Pack(1, 1)}
			}
			p.AccessBatch(batch, nil)
		}
	}
	before := p.pr.allocatedChunks
	res := p.Flush()
	if p.pr.allocatedChunks != before {
		t.Errorf("Flush grew the pool from %d to %d chunks", before, p.pr.allocatedChunks)
	}
	if max := uint64(workers * (qcap + 2)); before > max {
		t.Errorf("%d chunks allocated, bound %d", before, max)
	}
	var rings uint64
	for _, w := range p.pl.workers {
		rings += w.tr.memBytes()
	}
	if want := before*chunkBytes + rings; res.Stats.QueueBytes != want {
		t.Errorf("QueueBytes = %d, want %d (%d chunks + ring cells)", res.Stats.QueueBytes, want, before)
	}
	if res.WorkerEvents[0] != perPhase || res.WorkerEvents[1] != perPhase {
		t.Errorf("worker events %v, want %d each", res.WorkerEvents, perPhase)
	}
	// 2×40 full chunks; the sentinels rode two empty ones.
	if res.Stats.Chunks != 80 || res.Stats.ControlChunks != workers {
		t.Errorf("chunks %d control %d, want 80 and %d", res.Stats.Chunks, res.Stats.ControlChunks, workers)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := Imbalance([]uint64{5, 5, 5, 5}); got != 1 {
		t.Errorf("even = %v", got)
	}
	if got := Imbalance([]uint64{30, 0, 0, 0, 0, 0}); got != 6 {
		t.Errorf("skewed = %v, want 6", got)
	}
	if got := Imbalance([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v", got)
	}
}
