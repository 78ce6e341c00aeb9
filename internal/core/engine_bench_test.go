package core

import (
	"testing"

	"ddprof/internal/event"

	"ddprof/internal/sig"
)

// BenchmarkEngineProcess is the in-package twin of ddbench's
// core.serial_ns_per_event: seq-serial's three programs (MG, BT, kmeans)
// recorded once, then replayed through a fresh engine per program over a
// 2^21-slot signature — through the fused arm, and through the interface arm
// the §III-B baselines take — and over the perfect store, ddbench's
// reference. The run row feeds the fused arm's streams through the run kernel
// in event.BatchSize runs, as Serial.AccessBatch does; the other rows go one
// Process call per event. Construction is inside the timed region: a profile
// pays for its store.
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
		open func() sig.Store
		race bool
		run  bool // ProcessRun over BatchSize runs instead of Process per event
	}{
		{"fused", func() sig.Store { return sig.NewSignature(1 << 21) }, false, false},
		{"run", func() sig.Store { return sig.NewSignature(1 << 21) }, false, true},
		{"interface", func() sig.Store { return plainStore{sig.NewSignature(1 << 21)} }, false, false},
		// The fused arm over 40-byte records: the signature keeps stamps.
		{"racecheck", func() sig.Store { return sig.NewSignature(1 << 21) }, true, false},
		{"perfect", func() sig.Store { return sig.NewPerfectSignature() }, false, false},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, s := range streams {
					e := NewEngine(arm.open(), s.meta, arm.race)
					if arm.run {
						for evs := s.evs; len(evs) > 0; {
							n := min(len(evs), event.BatchSize)
							e.ProcessRun(evs[:n])
							evs = evs[n:]
						}
						continue
					}
					for j := range s.evs {
						e.Process(s.evs[j])
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
