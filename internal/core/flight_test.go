package core

// Telemetry coverage: the parallel stages' counters and gauges,
// consumer-side event accounting and publication watermarks (no double
// counting between in-flight and merge-time publication).

import (
	"strings"
	"testing"
	"time"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
)

// TestParallelStageHistograms: the parallel pipeline's stages publish
// counters and gauges, not sampled latency histograms (ddbench's ledger
// prices the stages from outside). After a two-worker run the group holds
// every event, each worker's deepest ring and the store footprint, and the
// exposition carries no histogram line.
func TestParallelStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: "perfect", Metrics: pipe})
	evs := synthStream(64*event.ChunkSize, 500, 7)
	total := uint64(len(evs))
	for len(evs) > 0 {
		n := min(len(evs), event.BatchSize)
		p.AccessBatch(evs[:n], nil)
		evs = evs[n:]
	}
	p.Flush()
	if got := pipe.Events.Load(); got != total {
		t.Errorf("events_total = %d, want %d", got, total)
	}
	for w := 0; w < 2; w++ {
		if d := pipe.QueueDepth[w].Load(); d <= 0 || d > pipe.QueueDepthMax.Load() {
			t.Errorf("worker %d queue depth = %d, max = %d", w, d, pipe.QueueDepthMax.Load())
		}
	}
	if pipe.StoreBytes.Load() <= 0 {
		t.Error("store_bytes not published at flush")
	}
	var sb strings.Builder
	reg.WriteText(&sb)
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		name := strings.Fields(line)[0]
		if strings.Contains(name, "_stage_") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p99") {
			t.Errorf("exposition carries a histogram line: %q", line)
		}
	}
}

// TestMTConsumerSideEventCount: events_total is counted by the consumers at
// batch granularity, and a collapsed read still counts its full multiplicity
// — the logical access count, same as Stats.Accesses — whether the events
// arrive in batches (duplicate reads collapsed) or one by one (none are).
func TestMTConsumerSideEventCount(t *testing.T) {
	const reads = 10000
	evs := []event.Access{{Addr: 0x800, Kind: event.Write, Loc: loc.Pack(1, 1)}}
	for i := 0; i < reads; i++ {
		evs = append(evs, event.Access{Addr: 0x800, Kind: event.Read, Loc: loc.Pack(1, 2)})
	}
	for _, batch := range []bool{true, false} {
		reg := telemetry.NewRegistry()
		pipe := reg.Pipeline("t")
		m := mustNew(t, Config{Mode: ModeMT, Workers: 2, SlotsPerWorker: 1 << 10, Metrics: pipe})
		if batch {
			m.AccessBatch(evs, nil)
		} else {
			for _, a := range evs {
				m.Access(a)
			}
		}
		res := m.Flush()
		if got := pipe.Events.Load(); got != reads+1 {
			t.Errorf("batch=%v: events_total = %d, want %d", batch, got, reads+1)
		}
		if res.Stats.Accesses != reads+1 {
			t.Errorf("batch=%v: Stats.Accesses = %d, want %d", batch, res.Stats.Accesses, reads+1)
		}
		if collapsed := res.Stats.DupCollapsed > 0; collapsed != batch {
			t.Errorf("batch=%v: DupCollapsed = %d", batch, res.Stats.DupCollapsed)
		}
		if got := pipe.DupCollapsed.Load(); got != res.Stats.DupCollapsed {
			t.Errorf("batch=%v: dup_collapsed counter = %d, Stats.DupCollapsed = %d", batch, got, res.Stats.DupCollapsed)
		}
	}
}

// TestDupCollapsedLive: the collapse count the producers keep reaches
// dup_collapsed_total while the run is live (a daemon session's /metrics),
// not only at Flush, and the final counter is Stats.DupCollapsed exactly.
func TestDupCollapsedLive(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	m := mustNew(t, Config{Mode: ModeParallel, Workers: 2, SlotsPerWorker: 1 << 12, Metrics: pipe})
	batch := make([]event.Access, 0, event.BatchSize)
	for i := uint64(0); len(batch)+3 <= cap(batch); i++ {
		w := event.Access{Addr: 0x1000 + 8*i, Kind: event.Write, Loc: loc.Pack(1, 1)}
		r := event.Access{Addr: 0x1000 + 8*i, Kind: event.Read, Loc: loc.Pack(1, 2)}
		batch = append(batch, w, r, r) // the second read collapses
	}
	// Feed until the first worker's periodic publication has happened.
	deadline := time.Now().Add(20 * time.Second)
	for pipe.DupCollapsed.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("dup_collapsed_total is still 0 before Flush")
		}
		for i := 0; i < 256; i++ {
			m.AccessBatch(batch, nil)
		}
	}
	res := m.Flush()
	if got := pipe.DupCollapsed.Load(); got != res.Stats.DupCollapsed {
		t.Errorf("dup_collapsed_total = %d after Flush, Stats.DupCollapsed = %d", got, res.Stats.DupCollapsed)
	}
}

// TestDepCacheNoDoubleCount: workers publish dep-cache deltas while running
// and the merge publishes the remainder; the counter must equal the
// merged stats exactly, not twice them.
func TestDepCacheNoDoubleCount(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, SlotsPerWorker: 1 << 12, Metrics: pipe})
	for _, a := range synthStream(400000, 50, 11) {
		p.Access(a)
	}
	res := p.Flush()
	if res.Stats.DepCacheProbes == 0 {
		t.Fatal("stream produced no dep-cache probes; test needs a hotter stream")
	}
	if got := pipe.DepCacheHits.Load(); got != res.Stats.DepCacheHits {
		t.Errorf("dep_cache_hits_total = %d, want %d (Stats)", got, res.Stats.DepCacheHits)
	}
	if got := pipe.DepCacheProbes.Load(); got != res.Stats.DepCacheProbes {
		t.Errorf("dep_cache_probes_total = %d, want %d (Stats)", got, res.Stats.DepCacheProbes)
	}
}
