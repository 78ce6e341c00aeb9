package core

import (
	"fmt"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/telemetry"
)

// TestStoreTelemetryPublished: Flush publishes the store gauges for every
// backend — the summed actual footprint always, and the per-tier split plus
// exact residency when the store is tiered (the hybrid).
func TestStoreTelemetryPublished(t *testing.T) {
	drive := func(backend string) *telemetry.Pipeline {
		reg := telemetry.NewRegistry()
		pipe := reg.Pipeline("t")
		p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: backend, Metrics: pipe})
		var ts uint64
		for i := 0; i < 20000; i++ {
			ts++
			addr := uint64(0x1000 + 8*(i%16)) // tight hot set: promotions fire
			k := event.Write
			if i%2 == 1 {
				k = event.Read
			}
			p.Access(event.Access{Addr: addr, Kind: k, Loc: loc.Pack(1, 1+i%4), TS: ts})
		}
		p.Flush()
		return pipe
	}

	// Shadow memory: page-granular Bytes() accounting reaches the gauge.
	if pipe := drive("shadow"); pipe.StoreBytes.Load() == 0 {
		t.Error("shadow: store_bytes gauge not published at Flush")
	}
	// Hybrid: total plus tier split and residency.
	pipe := drive("hybrid:slots=1024,exact=8,promote=4")
	if pipe.StoreBytes.Load() == 0 {
		t.Error("hybrid: store_bytes gauge not published")
	}
	if pipe.StoreExactBytes.Load() == 0 || pipe.StoreTailBytes.Load() == 0 {
		t.Errorf("hybrid: tier gauges exact=%d tail=%d, want both positive",
			pipe.StoreExactBytes.Load(), pipe.StoreTailBytes.Load())
	}
	if pipe.StoreExactResident.Load() == 0 {
		t.Error("hybrid: no exact residents on an all-hot stream")
	}
}

// exactBackends enumerates every registered backend that promises exact
// results, plus the hybrid with an unbounded exact tier — all of them must
// produce byte-identical profiles. "perfect" is the reference.
var exactBackends = []string{"perfect", "shadow", "hashtab", "hybrid:exact=0"}

// TestBackendEquivalence is the cross-backend golden suite: the same access
// streams driven through serial and parallel pipelines under each exact
// backend hash to the same profile digest. The digest covers the full
// dependence set with per-key stats and the loop aggregates, so a single
// dropped or spurious dependence in any store implementation fails here.
func TestBackendEquivalence(t *testing.T) {
	streams := equivSuite()
	streams = append(streams,
		equivStream{"synth", prog.NewMeta(), synthStream(1<<15, 512, 7)},
		equivStream{"mt-4threads", prog.NewMeta(), mtThreadStream(4, 8000)},
	)
	modes := []struct {
		name string
		mk   func(backend string, meta *prog.Meta) Profiler
	}{
		{"serial", func(b string, meta *prog.Meta) Profiler {
			return mustNew(t, Config{Backend: b, Meta: meta})
		}},
		{"par3", func(b string, meta *prog.Meta) Profiler {
			return mustNew(t, Config{Mode: ModeParallel, Workers: 3, QueueCap: 8, Backend: b, Meta: meta})
		}},
		{"par4", func(b string, meta *prog.Meta) Profiler {
			return mustNew(t, Config{Mode: ModeParallel, Workers: 4, Backend: b, Meta: meta})
		}},
	}
	for _, s := range streams {
		for _, m := range modes {
			want := ""
			for _, b := range exactBackends {
				got := digestResult(feed(m.mk(b, s.meta), s.evs), false)
				if want == "" {
					want = got
					continue
				}
				if got != want {
					t.Errorf("%s/%s: backend %q profile diverged from %q", s.name, m.name, b, exactBackends[0])
				}
			}
		}
	}
}

// TestHybridBoundedHeavyHitters is the local half of the hybrid acceptance
// check: under a tight exactness budget the hybrid must still recover every
// dependence among the heavy-hitter addresses the promotion machinery is
// meant to protect, and remain near-complete overall. Hot accesses carry
// file ID 2 so their dependence keys are separable from the cold tail's.
func TestHybridBoundedHeavyHitters(t *testing.T) {
	var evs []event.Access
	var ts uint64
	hot := []uint64{0x5000, 0x5008, 0x5010, 0x5018}
	for i := 0; i < 60000; i++ {
		ts++
		a := event.Access{TS: ts, Kind: event.Write}
		if i%2 == 1 {
			a.Kind = event.Read
		}
		if i%4 != 3 {
			a.Addr = hot[i%len(hot)]
			a.Loc = loc.Pack(2, 1+i%6)
		} else {
			a.Addr = uint64(0x100000 + 8*(i%4096))
			a.Loc = loc.Pack(1, 1+i%6)
		}
		evs = append(evs, a)
	}

	want := runSerial(t, evs)

	spec := fmt.Sprintf("hybrid:slots=4096,exact=%d,promote=4", 64)
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: spec})
	for _, a := range evs {
		p.Access(a)
	}
	got := p.Flush()

	hotMissing, tailMissing, total := 0, 0, 0
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		total++
		if _, ok := got.Deps.Lookup(k); !ok {
			if k.Src.File() == 2 && k.Sink.File() == 2 {
				hotMissing++
			} else {
				tailMissing++
			}
		}
		return true
	})
	if hotMissing != 0 {
		t.Errorf("hybrid missed %d heavy-hitter dependences", hotMissing)
	}
	// The cold tail runs under signature semantics with a deliberately tight
	// store, so a handful of tail dependences may be perturbed — but the
	// profile must stay near-complete.
	if tailMissing > total/20 {
		t.Errorf("hybrid missed %d/%d tail dependences", tailMissing, total)
	}
}
