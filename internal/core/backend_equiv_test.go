package core

import (
	"fmt"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// TestStoreTelemetryPublished: Flush publishes the summed actual store
// footprint for every backend, page-accounted and slot-array alike.
func TestStoreTelemetryPublished(t *testing.T) {
	for _, backend := range []string{"shadow", "signature:slots=1024"} {
		pipe := telemetry.NewRegistry().Pipeline("t")
		p := mustNew(t, Config{Mode: ModeParallel, Workers: 2, Backend: backend, Metrics: pipe})
		for i := 0; i < 20000; i++ {
			k := event.Write
			if i%2 == 1 {
				k = event.Read
			}
			p.Access(event.Access{Addr: uint64(0x1000 + 8*(i%16)), Kind: k, Loc: loc.Pack(1, 1+i%4), TS: uint64(i + 1)})
		}
		p.Flush()
		if pipe.StoreBytes.Load() == 0 {
			t.Errorf("%s: store_bytes gauge not published at Flush", backend)
		}
	}
}

// TestRegisteredBackends pins the store layer to the paper's four, as every
// binary sees it (core links shadow and hashtab in), and the retired hybrid
// tier (EXPERIMENTS.md decision record) to the unknown-name error that lists
// them.
func TestRegisteredBackends(t *testing.T) {
	if got := fmt.Sprint(sig.BackendNames()); got != "[hashtab perfect shadow signature]" {
		t.Errorf("registered backends = %s", got)
	}
	_, err := sig.OpenStore("hybrid:slots=1m,exact=4096", 0)
	const want = `sig: unknown store backend "hybrid" (registered: hashtab, perfect, shadow, signature)`
	if err == nil || err.Error() != want {
		t.Errorf("retired backend: err = %v, want %q", err, want)
	}
}

// exactBackends enumerates every registered backend that promises exact
// results — all of them must produce byte-identical profiles. "perfect" is
// the reference.
var exactBackends = []string{"perfect", "shadow", "hashtab"}

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
				got := digestResult(feed(m.mk(b, s.meta), s.evs))
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
