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
// in event.BatchSize runs, as ModeSerial does; the other rows go one
// Process call per event. The tight row is wide-tight's case: rgbyuv over a
// signature of a quarter as many slots as the stream has addresses, where
// the store collides and the instance cache meets its most templates per
// loop body. Each row reports its instance-cache misses in % of probes.
// Construction is inside the timed region: a profile pays for its store.
func BenchmarkEngineProcess(b *testing.B) {
	var serial []*equivStream
	for _, name := range []string{"MG", "BT", "kmeans"} {
		serial = append(serial, recordWorkload(b, name, 1))
	}
	rgbyuv := recordWorkload(b, "rgbyuv", 1)
	addrs := make(map[uint64]struct{})
	for _, a := range rgbyuv.evs {
		addrs[a.Addr>>3] = struct{}{}
	}
	tight := len(addrs) / 4
	for _, arm := range []struct {
		name    string
		streams []*equivStream
		open    func() sig.Store
		race    bool
		run     bool // ProcessRun over BatchSize runs instead of Process per event
	}{
		{"fused", serial, func() sig.Store { return sig.NewSignature(1 << 21) }, false, false},
		{"run", serial, func() sig.Store { return sig.NewSignature(1 << 21) }, false, true},
		{"interface", serial, func() sig.Store { return plainStore{sig.NewSignature(1 << 21)} }, false, false},
		// The fused arm over 40-byte records: the signature keeps stamps.
		{"racecheck", serial, func() sig.Store { return sig.NewSignature(1 << 21) }, true, false},
		{"perfect", serial, func() sig.Store { return sig.NewPerfectSignature() }, false, false},
		{"tight", []*equivStream{rgbyuv}, func() sig.Store { return sig.NewSignature(tight) }, false, true},
	} {
		events := 0
		for _, s := range arm.streams {
			events += len(s.evs)
		}
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			var hits, probes uint64
			for i := 0; i < b.N; i++ {
				for _, s := range arm.streams {
					e := NewEngine(arm.open(), s.meta, arm.race)
					if arm.run {
						for evs := s.evs; len(evs) > 0; {
							n := min(len(evs), event.BatchSize)
							e.ProcessRun(evs[:n])
							evs = evs[n:]
						}
					} else {
						for j := range s.evs {
							e.Process(s.evs[j])
						}
					}
					h, p := e.CacheStats()
					hits, probes = hits+h, probes+p
				}
			}
			b.ReportMetric(100*float64(probes-hits)/float64(probes), "miss%")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
