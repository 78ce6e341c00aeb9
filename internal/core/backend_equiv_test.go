package core

import (
	"fmt"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// TestStoreTelemetryPublished: Flush publishes the summed actual store
// footprint for every store, the perfect table's as much as a signature's.
func TestStoreTelemetryPublished(t *testing.T) {
	for _, backend := range []string{"perfect", "signature:slots=1024"} {
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

// TestRegisteredBackends pins the store choice every binary and daemon
// session has to the three spec forms, and the §III-B baselines and the
// retired hybrid tier (EXPERIMENTS.md decision record) to their refusals.
func TestRegisteredBackends(t *testing.T) {
	for spec, want := range map[string]string{
		"":                   "*sig.Signature",
		"signature":          "*sig.Signature",
		"signature:slots=4k": "*sig.Signature",
		"perfect":            "*sig.PerfectSignature",
	} {
		if p, err := New(Config{Backend: spec}); err != nil {
			t.Errorf("%q: %v", spec, err)
		} else if got := fmt.Sprintf("%T", p.workers[0].eng.Store()); got != want {
			t.Errorf("%q opens a %s, want %s", spec, got, want)
		}
	}
	const forms = "(want signature, signature:slots=N (k/m/g suffixes) or perfect)"
	for spec, want := range map[string]string{
		"shadow":                     `sig: store "shadow" is a §III-B baseline of ddexp stores, not a profiling store ` + forms,
		"hashtab:buckets=64k":        `sig: store "hashtab" is a §III-B baseline of ddexp stores, not a profiling store ` + forms,
		"hybrid:slots=1m,exact=4096": `sig: unknown store spec "hybrid:slots=1m,exact=4096" ` + forms,
	} {
		if _, err := sig.OpenStore(spec, 0); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %q", spec, err, want)
		}
	}
}
