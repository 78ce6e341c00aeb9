package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// residueReference is what a w-worker profiler over m-slot signatures
// reported before its workers' signatures were sharded: one engine per
// residue class of ownerOf, each over an unsharded m-slot signature and fed
// its class in stream order, merged by the pipeline's own merge stage.
func residueReference(s equivStream, m, w int, raceCheck bool) *Result {
	pl := new(Profiler)
	for i := 0; i < w; i++ {
		pl.workers = append(pl.workers, &worker{id: i, eng: NewEngine(sig.NewSignature(m), s.meta, raceCheck)})
	}
	var stats RunStats
	for _, a := range s.evs {
		pl.workers[ownerOf(a.Addr, w, powerOfTwoMask(w))].eng.Process(a)
		if a.Kind <= event.Write {
			stats.Accesses += 1 + uint64(a.Rep)
		}
	}
	return pl.merge(stats)
}

// TestTightParallelEqualsSerial: on signatures far smaller than the
// footprint, where nearly every access collides, a W-worker profiler whose
// SlotsPerWorker is m reports byte for byte (DDP1, loop verdicts) what W
// unsharded m-slot signatures fed the same residue classes report — sharding
// moved no collision — and, when W divides m, what the serial profiler over
// one m-slot signature reports, at that signature's size, whatever Workers
// the serial profiler is given.
func TestTightParallelEqualsSerial(t *testing.T) {
	// Four threads over 3,000 shared words; stamps repeat across threads, so
	// the race rule has something to flag.
	var threads []event.Access
	for i := 0; i < 12000; i++ {
		a := event.Access{Addr: 0x40000 + uint64(i*7919%3000)*8, Kind: event.Read, Loc: loc.Pack(2, 1+i%9), Thread: int32(i % 4), TS: uint64(i/5 + 1)}
		if i%3 == 0 {
			a.Kind = event.Write
		}
		threads = append(threads, a)
	}
	streams := []equivStream{
		{"synth", prog.NewMeta(), synthStream(12000, 4000, 9)},
		{"threads", prog.NewMeta(), threads},
		recordWorkload(t, "CG", 0.1),
	}
	for _, s := range streams {
		// What no collision would leave: a run that matches it shows nothing.
		exact := map[bool][]byte{}
		for _, race := range []bool{false, true} {
			exact[race] = encodeSet(t, feed(mustNew(t, Config{Backend: "perfect", Meta: s.meta, RaceCheck: race}), s.evs).Deps)
		}
		for _, tc := range []struct {
			m, w  int
			tight bool // w | m: the serial profile too
		}{
			{64, 2, true}, {64, 4, true}, {64, 8, true}, {96, 2, true}, {96, 4, true}, {96, 8, true},
			{1000, 2, true}, {1000, 4, true}, {1000, 8, true}, {1024, 2, true}, {1024, 4, true}, {1024, 8, true},
			// w ∤ m spreads the classes over lcm(m, w) indices in all: keep
			// that below the footprints too.
			{96, 5, false}, {100, 3, false}, {100, 6, false}, {128, 3, false},
		} {
			for _, mode := range []Mode{ModeParallel, ModeMT} {
				name := fmt.Sprintf("%s m=%d W=%d %v", s.name, tc.m, tc.w, mode)
				race := mode == ModeMT
				got := feed(mustNew(t, Config{Mode: mode, Workers: tc.w, SlotsPerWorker: tc.m, Meta: s.meta}), s.evs)
				refs := map[string]*Result{"unsharded residue classes": residueReference(s, tc.m, tc.w, race)}
				if tc.tight {
					refs["serial"] = feed(mustNew(t, Config{SlotsPerWorker: tc.m, Meta: s.meta, RaceCheck: race}), s.evs)
					// ModeSerial ignores Workers: SlotsPerWorker means the
					// same signature in every mode.
					refs["serial at Workers: w"] = feed(mustNew(t, Config{Workers: tc.w, SlotsPerWorker: tc.m, Meta: s.meta, RaceCheck: race}), s.evs)
					if got.Stats.StoreBytes != refs["serial"].Stats.StoreBytes || got.Stats.StoreModeledBytes != uint64(4*tc.m) {
						t.Errorf("%s: stores hold %d bytes (%d modeled), the serial signature %d (%d)", name,
							got.Stats.StoreBytes, got.Stats.StoreModeledBytes, refs["serial"].Stats.StoreBytes, 4*tc.m)
					}
				}
				ddp1 := encodeSet(t, got.Deps)
				for ref, want := range refs {
					if !bytes.Equal(encodeSet(t, want.Deps), ddp1) {
						t.Errorf("%s: DDP1 differs from %s", name, ref)
					}
					requireSameProfile(t, name+" vs "+ref, want, got)
				}
				if bytes.Equal(ddp1, exact[race]) {
					t.Errorf("%s: the exact store's profile: the signature is not tight", name)
				}
			}
		}
	}
}

// TestShardedOccupancyReproducer is DESIGN.md's reproducer of the reachable-
// slots defect: two workers, SlotsPerWorker 1024, 100,000 consecutive words
// written. Each worker's table is full, so the gauge reads 1000 (it read 500
// when a worker held 1024 indices and reached 512).
func TestShardedOccupancyReproducer(t *testing.T) {
	for _, mode := range []Mode{ModeParallel, ModeMT} {
		pipe := telemetry.NewRegistry().Pipeline("t")
		p := mustNew(t, Config{Mode: mode, Workers: 2, SlotsPerWorker: 1024, Metrics: pipe})
		for i := uint64(0); i < 100_000; i++ {
			p.Access(event.Access{Kind: event.Write, Addr: 0x1000 + 8*i})
		}
		res := p.Flush()
		if got := pipe.SigOccupancyPermille.Load(); got != 1000 {
			t.Errorf("%v: sig_occupancy_permille = %d, want 1000", mode, got)
		}
		stride := uint64(unsafe.Sizeof(sig.Pair{}))
		if mode == ModeMT { // MT checks races: a stamp word behind each pair
			stride += uint64(unsafe.Sizeof(sig.Stamps(0)))
		}
		if res.Stats.StoreBytes != 1024*stride {
			t.Errorf("%v: stores hold %d bytes, want 1024 indices of %d", mode, res.Stats.StoreBytes, stride)
		}
	}
}
