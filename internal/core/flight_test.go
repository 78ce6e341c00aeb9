package core

// Flight-recorder coverage: stage latency histograms, consumer-side MT event
// accounting, publication watermarks (no double counting between in-flight
// and merge-time publication).

import (
	"strings"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
)

func TestParallelStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("t")
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: "perfect", Metrics: pipe})
	// One chunk push and one worker batch in sampleEvery is timed: fill twice
	// that many chunks per worker so every stage is sampled.
	for _, a := range synthStream(2*2*sampleEvery*event.ChunkSize, 500, 7) {
		p.Access(a)
	}
	p.Flush()
	if pipe.StageProduceNs.Count() == 0 {
		t.Error("no producer-stage samples recorded")
	}
	if pipe.StageWorkerNs.Count() == 0 {
		t.Error("no worker-stage samples recorded")
	}
	if got := pipe.StageMergeNs.Count(); got != 1 {
		t.Errorf("merge-stage samples = %d, want exactly 1", got)
	}
	// Quantiles of a populated histogram are positive durations.
	if q := pipe.StageWorkerNs.Quantile(0.5); q <= 0 {
		t.Errorf("worker-stage p50 = %v, want > 0", q)
	}
	// The histograms surface on the exposition page.
	var sb strings.Builder
	reg.WriteText(&sb)
	for _, want := range []string{
		"t_stage_produce_ns_p99 ",
		"t_stage_worker_ns_p50 ",
		"t_stage_merge_ns_count 1",
		"t_stage_transport_wait_ns_count ",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
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
