// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus the §III-B ablations and pipeline
// micro-benchmarks. Regenerate everything with
//
//	go test -bench=. -benchmem
//
// The drivers live in internal/exp; cmd/ddexp prints the full tables. The
// benchmarks run reduced configurations (scale/workload subsets) so the
// whole suite finishes in minutes and report the headline quantity of each
// experiment through b.ReportMetric.
package ddprof_test

import (
	"strings"
	"testing"
	"time"

	"ddprof"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/exp"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/queue"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
	"ddprof/internal/vm"
)

func benchOpts() exp.Options {
	o := exp.Defaults()
	o.Scale = 0.4
	return o
}

// BenchmarkTable1 regenerates Table I (FPR/FNR vs signature size) on a
// representative Starbench subset and reports the average FPR at the
// smallest and largest signatures.
func BenchmarkTable1(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"streamcluster", "tinyjpeg", "rotate", "kmeans"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Table1(o)
		if err != nil {
			b.Fatal(err)
		}
		var fprSmall, fprLarge float64
		for _, r := range rows {
			fprSmall += r.Rates[0].FPR
			fprLarge += r.Rates[len(r.Rates)-1].FPR
		}
		b.ReportMetric(fprSmall/float64(len(rows)), "FPR%@small-sig")
		b.ReportMetric(fprLarge/float64(len(rows)), "FPR%@large-sig")
	}
}

// BenchmarkTable2 regenerates Table II (parallelizable NAS loops) and
// reports the identified ratio (paper: 92.5%).
func BenchmarkTable2(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Table2(o)
		if err != nil {
			b.Fatal(err)
		}
		omp, ident, missed := 0, 0, 0
		for _, r := range rows {
			omp += r.OMP
			ident += r.IdentifiedDP
			missed += r.MissedSig
		}
		b.ReportMetric(100*float64(ident)/float64(omp), "identified%")
		b.ReportMetric(float64(missed), "missed-by-sig")
	}
}

// BenchmarkFig5 regenerates Figure 5 (sequential-target slowdowns) on a
// subset and reports the serial and 16T lock-free slowdown averages.
func BenchmarkFig5(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"EP", "FT", "rotate", "streamcluster"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Fig5(o)
		if err != nil {
			b.Fatal(err)
		}
		var serial, lf16 float64
		for _, r := range rows {
			serial += r.Serial
			lf16 += r.LockFree16T
		}
		b.ReportMetric(serial/float64(len(rows)), "serial-slowdown-x")
		b.ReportMetric(lf16/float64(len(rows)), "16T-lockfree-slowdown-x")
	}
}

// BenchmarkFig6 regenerates Figure 6 (parallel-target slowdowns) on a
// subset.
func BenchmarkFig6(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"rgbyuv", "md5"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		var s8, s16 float64
		for _, r := range rows {
			s8 += r.Workers8
			s16 += r.Workers16
		}
		b.ReportMetric(s8/float64(len(rows)), "8T-slowdown-x")
		b.ReportMetric(s16/float64(len(rows)), "16T-slowdown-x")
	}
}

// BenchmarkFig7 regenerates Figure 7 (memory, sequential targets) on a
// subset and reports average MB at 16 workers.
func BenchmarkFig7(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"FT", "IS", "streamcluster"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Fig7(o)
		if err != nil {
			b.Fatal(err)
		}
		var mb float64
		for _, r := range rows {
			mb += float64(r.T16) / (1 << 20)
		}
		b.ReportMetric(mb/float64(len(rows)), "MB@16T")
	}
}

// BenchmarkFig8 regenerates Figure 8 (memory, parallel targets) on a
// subset.
func BenchmarkFig8(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"md5", "rotate"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Fig8(o)
		if err != nil {
			b.Fatal(err)
		}
		var mb float64
		for _, r := range rows {
			mb += float64(r.T16) / (1 << 20)
		}
		b.ReportMetric(mb/float64(len(rows)), "MB@16T")
	}
}

// BenchmarkFig9 regenerates Figure 9 (water-spatial communication matrix)
// and reports the band-to-background contrast.
func BenchmarkFig9(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		_, res, err := exp.Fig9(o)
		if err != nil {
			b.Fatal(err)
		}
		m := res.Matrix
		var nb, far uint64
		for p := 0; p < m.Threads; p++ {
			nb += m.M[p][(p+1)%m.Threads]
			far += m.M[p][(p+3)%m.Threads]
		}
		b.ReportMetric(float64(nb)/float64(far+1), "neighbour/far-contrast")
		b.ReportMetric(float64(m.CrossThread()), "crossthread-RAW")
	}
}

// BenchmarkEq2 regenerates the Equation (2) validation and reports the
// worst absolute prediction error.
func BenchmarkEq2(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Eq2(o)
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, r := range rows {
			d := r.Predicted - r.Measured
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
		b.ReportMetric(worst, "worst-abs-error")
	}
}

// BenchmarkMergeAblation measures the §III-B dependence-merging factor.
func BenchmarkMergeAblation(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"CG", "MG", "FT"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.MergeAblation(o)
		if err != nil {
			b.Fatal(err)
		}
		var f float64
		for _, r := range rows {
			f += r.Factor
		}
		b.ReportMetric(f/float64(len(rows)), "merge-factor-x")
	}
}

// BenchmarkStoreAblation measures the §III-B store comparison (paper: hash
// table 1.5–3.7× slower than signatures).
func BenchmarkStoreAblation(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.StoreAblation(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows[1:] {
			unit := strings.ReplaceAll(r.Store, " ", "-")
			b.ReportMetric(r.RelativeToSig, unit+"-vs-sig-x")
		}
	}
}

// --- pipeline micro-benchmarks ------------------------------------------

// BenchmarkEngineSignature measures Algorithm 1 throughput against the
// signature store.
func BenchmarkEngineSignature(b *testing.B) {
	benchEngine(b, func() sig.Store { return sig.NewSignature(1 << 20) })
}

// BenchmarkEnginePerfect measures Algorithm 1 against the exact map store.
func BenchmarkEnginePerfect(b *testing.B) {
	benchEngine(b, func() sig.Store { return sig.NewPerfectSignature() })
}

func benchEngine(b *testing.B, mk func() sig.Store) {
	eng := core.NewEngine(mk(), nil, false)
	l := loc.Pack(1, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := event.Access{Addr: uint64(i%4096) * 8, Loc: l, Kind: event.Kind(i & 1)}
		eng.Process(a)
	}
}

// BenchmarkQueueSPSC measures the lock-free chunk queue.
func BenchmarkQueueSPSC(b *testing.B) {
	q := queue.NewSPSC[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !q.TryPush(1) {
				q.TryPop()
			}
		}
	})
}

// BenchmarkQueueLocked measures the mutex queue baseline.
func BenchmarkQueueLocked(b *testing.B) {
	q := queue.NewLocked[int](1024)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if !q.TryPush(1) {
				q.TryPop()
			}
		}
	})
}

// BenchmarkProfileEndToEnd measures the public API end to end on the
// quickstart-sized program.
func BenchmarkProfileEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := ddprof.NewProgram("bench")
		p.MainFunc(func(blk *ddprof.Block) {
			blk.Decl("sum", ddprof.Ci(0))
			blk.DeclArr("a", ddprof.Ci(256))
			blk.For("i", ddprof.Ci(0), ddprof.Ci(256), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "fill"}, func(l *ddprof.Block) {
					l.Set("a", ddprof.V("i"), ddprof.V("i"))
					l.Reduce("sum", ddprof.OpAdd, ddprof.Idx("a", ddprof.V("i")))
				})
		})
		if _, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeParallel, Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// hotPathStream synthesizes a dependence-dense instruction stream shaped
// like the paper's hot loops: every iteration re-fires the same static
// dependences (a carried RAW chain, a reduction RAW, an in-iteration RAW
// read twice), which is the instance redundancy the engine's hot path is
// optimized for.
func hotPathStream(events int) ([]event.Access, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "hot"})
	ctx := m.PushCtx(0, l)
	const window = 4096 // addresses cycle so every store stays warm
	aBase, sumAddr := uint64(0x10000), uint64(0x8000)
	evs := make([]event.Access, 0, events)
	for it := uint32(0); len(evs) < events; it++ {
		iv := event.PackIterVec([]uint32{it})
		at := func(i uint32) uint64 { return aBase + 8*uint64(i%window) }
		ev := func(addr uint64, k event.Kind, line int, fl event.Flags) event.Access {
			return event.Access{Addr: addr, Kind: k, Loc: loc.Pack(1, line), CtxID: ctx, IterVec: iv, Flags: fl}
		}
		if it > 0 {
			// a[i] = a[i-1] + ... : carried RAW, distance 1.
			evs = append(evs, ev(at(it-1), event.Read, 10, 0))
		}
		evs = append(evs,
			ev(at(it), event.Write, 12, 0),
			// x = a[i]*a[i]: the same read twice in one iteration — the
			// consecutive-duplicate shape the producer filter collapses.
			ev(at(it), event.Read, 13, 0),
			ev(at(it), event.Read, 13, 0),
			// sum += a[i]: carried reduction RAW.
			ev(sumAddr, event.Read, 14, event.FlagReduction),
			ev(sumAddr, event.Write, 14, event.FlagReduction),
		)
	}
	return evs[:events], m
}

// stridedStream synthesizes an array sweep: a copy kernel with a carried RAW
// (b[i] read, a[i] write, a[i-1] read), every instruction advancing by a
// fixed 8-byte stride over a large window — no duplicate reads, cold stores.
func stridedStream(events int) ([]event.Access, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "sweep"})
	ctx := m.PushCtx(0, l)
	const window = 1 << 16
	evs := make([]event.Access, 0, events)
	for it := uint32(0); len(evs) < events; it++ {
		i := it % window
		iv := event.PackIterVec([]uint32{it})
		src, dst := 0x900000+uint64(i)*8, 0x100000+uint64(i)*8
		ev := func(addr uint64, k event.Kind, line int) event.Access {
			return event.Access{Addr: addr, Kind: k, Loc: loc.Pack(2, line), CtxID: ctx, IterVec: iv}
		}
		evs = append(evs, ev(src, event.Read, 20), ev(dst, event.Write, 21))
		if i > 0 {
			evs = append(evs, ev(dst-8, event.Read, 22))
		}
	}
	return evs[:events], m
}

// mixedStream interleaves a strided sweep with a random-access instruction.
func mixedStream(events int) ([]event.Access, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "mixed"})
	ctx := m.PushCtx(0, l)
	const window = 1 << 16
	rng := uint64(0x2545F4914F6CDD1D)
	evs := make([]event.Access, 0, events)
	for it := uint32(0); len(evs) < events; it++ {
		i := it % window
		iv := event.PackIterVec([]uint32{it})
		rng = rng*6364136223846793005 + 1442695040888963407
		evs = append(evs,
			event.Access{Addr: 0x100000 + uint64(i)*8, Kind: event.Write, Loc: loc.Pack(3, 30), CtxID: ctx, IterVec: iv},
			event.Access{Addr: 0x900000 + (rng>>40)*8, Kind: event.Kind(rng & 1), Loc: loc.Pack(3, 31), CtxID: ctx, IterVec: iv},
		)
	}
	return evs[:events], m
}

// ptrChaseStream is the anti-strided workload: an LCG-permuted address per
// event.
func ptrChaseStream(events int) ([]event.Access, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "chase"})
	ctx := m.PushCtx(0, l)
	rng := uint64(0x9E3779B97F4A7C15)
	evs := make([]event.Access, 0, events)
	for it := uint32(0); len(evs) < events; it++ {
		iv := event.PackIterVec([]uint32{it})
		rng = rng*6364136223846793005 + 1442695040888963407
		evs = append(evs,
			event.Access{Addr: 0x100000 + (rng>>40)*8, Kind: event.Read, Loc: loc.Pack(4, 40), CtxID: ctx, IterVec: iv},
			event.Access{Addr: 0x100000 + (rng>>24&0xFFFF)*8, Kind: event.Write, Loc: loc.Pack(4, 41), CtxID: ctx, IterVec: iv},
		)
	}
	return evs[:events], m
}

// BenchmarkHotPath is the per-event cost gate of the profiling pipelines:
// events/s through the serial engine, the lock-free parallel pipeline and
// the MT pipeline on a dependence-dense stream handed over in executor-sized
// batches (mt4-access: one event at a time), plus the parallel pipeline on
// a strided sweep, a mixed sweep and a pointer chase (no duplicate reads to
// collapse, cold stores). A developer tool: `go test -run '^$' -bench
// BenchmarkHotPath .` on both commits; the numbers of record are ddbench's.
//
// All pipelines run with telemetry attached, so the benchmark prices the
// flight-recorder instrumentation too: stage histograms or publication
// watermarks leaking into the per-event path show up in events/s.
func BenchmarkHotPath(b *testing.B) {
	stream, meta := hotPathStream(1 << 16)
	pipe := telemetry.NewRegistry().Pipeline("pipeline")
	// batched hands over n events the way both executors do: AccessBatch, in
	// event.BatchSize segments.
	batched := func(prof core.Profiler, stream []event.Access, n int) {
		for i := 0; i < n; {
			off := i % len(stream)
			seg := min(event.BatchSize, n-i, len(stream)-off)
			prof.AccessBatch(stream[off:off+seg], nil)
			i += seg
		}
	}
	perEvent := func(prof core.Profiler, stream []event.Access, n int) {
		for i := 0; i < n; i++ {
			prof.Access(stream[i%len(stream)])
		}
	}
	run := func(b *testing.B, stream []event.Access, cfg core.Config, feed func(core.Profiler, []event.Access, int)) {
		b.ReportAllocs()
		cfg.Metrics = pipe
		prof, err := core.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		b.ResetTimer()
		feed(prof, stream, b.N)
		prof.Flush()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "events/s")
	}
	par4 := func(stream []event.Access, meta *prog.Meta) func(*testing.B) {
		return func(b *testing.B) {
			run(b, stream, core.Config{Mode: core.ModeParallel, Workers: 4, SlotsPerWorker: 1 << 18, Meta: meta}, batched)
		}
	}
	b.Run("serial", func(b *testing.B) {
		run(b, stream, core.Config{SlotsPerWorker: 1 << 20, Meta: meta}, batched)
	})
	b.Run("parallel4", par4(stream, meta))
	mt4 := core.Config{Mode: core.ModeMT, Workers: 4, SlotsPerWorker: 1 << 18, Meta: meta}
	b.Run("mt4", func(b *testing.B) { run(b, stream, mt4, batched) })
	// The per-event adapter (tests, library callers): a run of one per event
	// and nothing collapsed on the way, so its price stays visible.
	b.Run("mt4-access", func(b *testing.B) { run(b, stream, mt4, perEvent) })
	strided, stridedMeta := stridedStream(1 << 16)
	mixed, mixedMeta := mixedStream(1 << 16)
	chase, chaseMeta := ptrChaseStream(1 << 16)
	b.Run("strided4", par4(strided, stridedMeta))
	b.Run("mixed4", par4(mixed, mixedMeta))
	b.Run("ptrchase4", par4(chase, chaseMeta))

	// The producer side of the same hot path: raw event production (nil
	// hook) from both executors on the scalar family, so this benchmark
	// shows the VM-vs-interpreter events/s ratio next to the consumer
	// pipelines it feeds. BenchmarkProducer has the full family × hook
	// matrix.
	prod := producerTargets()[0]
	for _, ex := range executors {
		b.Run("producer-"+ex.name, func(b *testing.B) {
			var events uint64
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := ex.run(prod.prog, nil, prod.opt)
				if err != nil {
					b.Fatal(err)
				}
				events += info.Accesses
			}
			b.ReportMetric(float64(events)/time.Since(start).Seconds(), "events/s")
		})
	}
}

// BenchmarkStore drives the identical dense hot-loop stream through a
// serial pipeline under each registered access-history backend and reports
// events/s, so backend implementations are directly comparable at the store
// layer. The stream is the dense hotPathStream on purpose: sparse random
// streams measure shadow's page-fill pathology, not store dispatch. Run with
// `go test -run '^$' -bench '^BenchmarkStore$' .`; ddbench's sig.store rows
// are the numbers of record.
func BenchmarkStore(b *testing.B) {
	stream, meta := hotPathStream(1 << 16)
	for _, backend := range []string{
		"signature:slots=256k",
		"perfect",
		"shadow",
		"hashtab",
	} {
		name := strings.NewReplacer(":", "_", ",", "_", "=", "-").Replace(backend)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			prof, err := core.New(core.Config{Backend: backend, Meta: meta})
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prof.Access(stream[i%len(stream)])
			}
			prof.Flush()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "events/s")
		})
	}
}

// --- merge-stage benchmarks ----------------------------------------------

// mergeShardKey fabricates the i-th distinct dependence key of the merge
// benchmark's key universe.
func mergeShardKey(i int) dep.Key {
	return dep.Key{
		Type:       dep.Type(i % 3),
		Sink:       loc.SourceLoc(uint32(i)),
		Src:        loc.SourceLoc(uint32(i>>1) ^ 0x55555),
		Var:        loc.VarID(i % 1024),
		SinkThread: int16(i % 4),
	}
}

// buildMergeShards synthesizes `workers` per-worker dependence sets over a
// universe of `distinct` keys: overlapPct percent of the universe appears in
// every shard (the duplicated dependences the merge must fold), the rest is
// partitioned evenly (the private dependences it must insert).
func buildMergeShards(workers, distinct, overlapPct int) []*dep.Set {
	shared := distinct * overlapPct / 100
	shards := make([]*dep.Set, workers)
	for w := range shards {
		s := dep.NewSet()
		for i := 0; i < shared; i++ {
			s.AddDist(mergeShardKey(i), i%2 == 0, i%3 == 0, false, uint32(i%8))
		}
		lo := shared + (distinct-shared)*w/workers
		hi := shared + (distinct-shared)*(w+1)/workers
		for i := lo; i < hi; i++ {
			s.AddDist(mergeShardKey(i), i%2 == 1, false, false, uint32(i%5))
		}
		shards[w] = s
	}
	return shards
}

// BenchmarkMerge measures the end-of-run merge stage in isolation: folding W
// per-worker dependence sets into one profile, serial fold (the old
// pipeline.merge loop — accumulate into a fresh set one worker at a time)
// against the parallel tree reduction (dep.MergeShards) now on that path.
// The matrix spans worker count, distinct-dependence population and the
// overlap ratio between shards; events/s counts merged source entries, so
// the two modes are directly comparable per configuration. Run with
// `go test -run '^$' -bench '^BenchmarkMerge$' .`; ddbench's core.flush_ms is
// the number of record.
func BenchmarkMerge(b *testing.B) {
	cfgs := []struct {
		name                       string
		workers, distinct, overlap int
	}{
		{"w4-d64k-ov50", 4, 1 << 16, 50},
		{"w8-d64k-ov50", 8, 1 << 16, 50},
		{"w16-d64k-ov50", 16, 1 << 16, 50},
		{"w8-d16k-ov50", 8, 1 << 14, 50},
		{"w8-d256k-ov50", 8, 1 << 18, 50},
		{"w8-d64k-ov0", 8, 1 << 16, 0},
		{"w8-d64k-ov90", 8, 1 << 16, 90},
	}
	run := func(b *testing.B, workers, distinct, overlap int, fn func([]*dep.Set) *dep.Set, releaseInputs bool) {
		var total uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			shards := buildMergeShards(workers, distinct, overlap)
			for _, sh := range shards {
				total += uint64(sh.Unique())
			}
			b.StartTimer()
			res := fn(shards)
			b.StopTimer()
			if releaseInputs {
				for _, sh := range shards {
					sh.Release()
				}
			}
			res.Release()
			b.StartTimer()
		}
		b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "events/s")
	}
	for _, c := range cfgs {
		c := c
		b.Run(c.name+"/serial", func(b *testing.B) {
			run(b, c.workers, c.distinct, c.overlap, func(shards []*dep.Set) *dep.Set {
				acc := dep.NewSet()
				for _, sh := range shards {
					acc.Merge(sh)
				}
				return acc
			}, true) // serial fold leaves its inputs live; release them off-clock
		})
		b.Run(c.name+"/tree", func(b *testing.B) {
			run(b, c.workers, c.distinct, c.overlap, dep.MergeShards, false)
		})
	}
}

// BenchmarkBalance measures the §IV-A load-balance ablation and reports the
// three imbalance factors for kmeans.
func BenchmarkBalance(b *testing.B) {
	o := benchOpts()
	o.Only = []string{"kmeans"}
	for i := 0; i < b.N; i++ {
		_, rows, err := exp.Balance(o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Modulo, "modulo-imbalance")
		b.ReportMetric(rows[0].Redistributed, "redistributed-imbalance")
		b.ReportMetric(rows[0].RoundRobin, "roundrobin-imbalance")
	}
}

// --- producer benchmarks -------------------------------------------------

// producerTargets are the event-source benchmark programs: a scalar
// reduction kernel, a strided array sweep, and a 4-thread locked counter
// run with timestamps the way ModeMT profiles it. Together they cover the
// three instruction mixes the producers see in practice.
func producerTargets() []struct {
	name string
	prog *ddprof.Program
	opt  interp.Options
} {
	scalar := ddprof.NewProgram("producer-scalar")
	scalar.MainFunc(func(b *ddprof.Block) {
		b.Decl("sum", ddprof.Ci(0))
		b.Decl("odd", ddprof.Ci(0))
		b.For("i", ddprof.Ci(0), ddprof.Ci(20000), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "acc"}, func(l *ddprof.Block) {
				l.Reduce("sum", ddprof.OpAdd, ddprof.Add(ddprof.V("i"), ddprof.Ci(1)))
				l.If(ddprof.Eq(ddprof.Mod(ddprof.V("i"), ddprof.Ci(2)), ddprof.Ci(1)),
					func(t *ddprof.Block) {
						t.Reduce("odd", ddprof.OpAdd, ddprof.V("i"))
					}, nil)
			})
	})

	strided := ddprof.NewProgram("producer-strided")
	strided.MainFunc(func(b *ddprof.Block) {
		const n = 4096
		b.DeclArr("a", ddprof.Ci(n))
		b.DeclArr("src", ddprof.Ci(n))
		b.For("t", ddprof.Ci(0), ddprof.Ci(6), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "sweep"}, func(o *ddprof.Block) {
				o.For("i", ddprof.Ci(1), ddprof.Ci(n), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "copy"}, func(l *ddprof.Block) {
						l.Set("a", ddprof.V("i"),
							ddprof.Add(ddprof.Idx("src", ddprof.V("i")),
								ddprof.Idx("a", ddprof.Sub(ddprof.V("i"), ddprof.Ci(1)))))
					})
			})
	})

	threaded := ddprof.NewProgram("producer-threaded")
	threaded.MainFunc(func(b *ddprof.Block) {
		b.Decl("counter", ddprof.Ci(0))
		b.Spawn(4, func(s *ddprof.Block) {
			s.Decl("local", ddprof.Ci(0))
			s.For("i", ddprof.Ci(0), ddprof.Ci(2000), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "work"}, func(l *ddprof.Block) {
					l.Reduce("local", ddprof.OpAdd, ddprof.Add(ddprof.V("i"), ddprof.Tid()))
					l.If(ddprof.Eq(ddprof.Mod(ddprof.V("i"), ddprof.Ci(50)), ddprof.Ci(0)),
						func(t *ddprof.Block) {
							t.Lock("m", func(c *ddprof.Block) {
								c.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
							})
						}, nil)
				})
		})
	})

	return []struct {
		name string
		prog *ddprof.Program
		opt  interp.Options
	}{
		{"scalar", scalar, interp.Options{}},
		{"strided", strided, interp.Options{}},
		{"threaded", threaded, interp.Options{Timestamps: true}},
	}
}

// executors are the two event producers by name: the reference interpreter
// and the VM production runs.
var executors = []struct {
	name string
	run  func(*minilang.Program, event.Hook, interp.Options) (*interp.RunInfo, error)
}{{"interp", interp.Run}, {"vm", vm.Run}}

// BenchmarkProducer measures the two event producers — the tree-walking
// interpreter and the bytecode VM — and reports events/s. Each family runs
// twice per executor: raw production (nil hook — the producer's capacity,
// every instrumentation point reached and counted but no event
// materialized), and delivery into a no-op sink (the per-event
// Access-construction and hook-dispatch cost added on top, which is the
// same for both executors and so compresses their ratio). Run with
// `go test -run '^$' -bench BenchmarkProducer .`; ddbench's vm.raw and
// event.hook rows are the numbers of record.
func BenchmarkProducer(b *testing.B) {
	sink := event.HookFunc(func(event.Access) {})
	hooks := []struct {
		name string
		h    event.Hook
	}{{"raw", nil}, {"sink", sink}}
	for _, tgt := range producerTargets() {
		for _, hk := range hooks {
			for _, ex := range executors {
				name := tgt.name + "/" + ex.name
				if hk.name == "sink" {
					name = tgt.name + "-sink/" + ex.name
				}
				b.Run(name, func(b *testing.B) {
					var events uint64
					b.ResetTimer()
					start := time.Now()
					for i := 0; i < b.N; i++ {
						info, err := ex.run(tgt.prog, hk.h, tgt.opt)
						if err != nil {
							b.Fatal(err)
						}
						events += info.Accesses
					}
					b.ReportMetric(float64(events)/time.Since(start).Seconds(), "events/s")
				})
			}
		}
	}
}
