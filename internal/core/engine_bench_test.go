package core

import (
	"testing"

	"ddprof/internal/sig"
)

// BenchmarkEngineProcess is the in-package twin of ddbench's
// core.serial_ns_per_event: seq-serial's three programs (MG, BT, kmeans)
// recorded once, then replayed through a fresh engine per program over a
// 2^21-slot signature — through the fused arm, and through the interface arm
// every other store takes. Construction is inside the timed region: a
// profile pays for its store.
func BenchmarkEngineProcess(b *testing.B) {
	var streams []equivStream
	events := 0
	for _, name := range []string{"MG", "BT", "kmeans"} {
		s := recordWorkload(b, name, 1)
		streams = append(streams, s)
		events += len(s.evs)
	}
	for _, arm := range []struct {
		name string
		wrap func(*sig.Signature) sig.Store
		race bool
	}{
		{"fused", func(g *sig.Signature) sig.Store { return g }, false},
		{"interface", func(g *sig.Signature) sig.Store { return plainStore{g} }, false},
		// The fused arm over 48-byte records: the signature keeps stamps.
		{"racecheck", func(g *sig.Signature) sig.Store { return g }, true},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range streams {
					e := NewEngine(arm.wrap(sig.NewSignature(1<<21)), s.meta, arm.race)
					for j := range s.evs {
						e.Process(s.evs[j])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
