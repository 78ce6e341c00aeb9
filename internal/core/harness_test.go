package core

// The equivalence harness. §IV says the parallel profiler "produces the same
// data dependences as the serial version"; every claim of that kind this
// package makes is one row of one table here: a configuration, a feeding seam
// and the corpus streams it runs. Each run is held to what every run keeps
// (checkRun), then by the one comparator, profileDiff, to its reference,
// which is computed once per stream and shared:
//
//   - an exact store in ModeSerial or ModeMT: the bare engine over the
//     perfect table with its instance cache emptied before every event
//     (exactRef), with the race rule if the row checks races and the stream
//     has pairs to judge;
//   - a §IV mode: the stream's serial profile (the serial row at the threads
//     seam, itself held to exactRef);
//   - a signature wider than every stream it runs: as an exact store;
//   - a tight sharded signature: residueReference;
//   - the pinned rows, besides: the committed fixtures, goldens.json (serial
//     and mt4 profile digests) and transport_counters.json (each pinned
//     mode's instance-cache misses, which move with the worker count while
//     the profile does not).
//
// Regenerate the fixtures (only when an intentional change is made) with:
//
//	go test ./internal/core/ -run TestEquivalence -update-goldens

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
	"ddprof/internal/workloads"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens.json and transport_counters.json from the current build")

// goldenWorkloadScale keeps the corpus fast to profile while still pushing
// hundreds of thousands of events through every pinned mode. internal/vm's
// TestWorkloadEquivalence holds the VM's streams at this scale to these.
const goldenWorkloadScale = 0.5

// The groups rows select corpus streams by.
const (
	gSuite uint8 = 1 << iota // equivSuite's special cases
	gSynth                   // synth and mt-4threads
	gWork                    // every workload, captured by interp.Run
	gHand                    // the hand-built edge streams
	gTight                   // streams far wider than the tight signatures

	gGolden = gSuite | gSynth | gWork // the streams the fixtures pin
)

// equivStream is one stream of the corpus: its events in order and the loop
// metadata that classifies them. wire, when set, is its AccessBatch form
// with ranges; the seams that hand one over compress the other streams
// (compressRuns) on first use.
type equivStream struct {
	name     string
	group    uint8
	meta     *prog.Meta
	evs      []event.Access
	accesses uint64     // the data events: every run's Stats.Accesses
	threaded bool       // two threads, or a stamp going back: pairs for the race rule
	mu       sync.Mutex // rows run in parallel: guards wire and refs
	wire     *rangedStream
	refs     map[string]*Result // the references by kind
}

func newStream(name string, group uint8, meta *prog.Meta, evs []event.Access) *equivStream {
	s := &equivStream{name: name, group: group, meta: meta, evs: evs, refs: map[string]*Result{}}
	for i, a := range evs {
		if a.Kind <= event.Write {
			s.accesses++
		}
		s.threaded = s.threaded || a.Thread != evs[0].Thread || i > 0 && a.TS < evs[i-1].TS
	}
	return s
}

func newWireStream(name string, group uint8, meta *prog.Meta, w *rangedStream) *equivStream {
	s := newStream(name, group, meta, w.points())
	s.wire = w
	return s
}

func (s *equivStream) wireForm() *rangedStream {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wire == nil {
		s.wire = compressRuns(s.evs)
	}
	return s.wire
}

// memo returns the reference of the kind named, computing it on first use.
func (s *equivStream) memo(kind string, f func() *Result) (string, *Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.refs[kind] == nil {
		s.refs[kind] = f()
	}
	return kind, s.refs[kind]
}

// fed is what each of w workers processes of s: the data accesses ownerOf
// routes to it.
func (s *equivStream) fed(w int) []uint64 {
	out := make([]uint64, w)
	for _, a := range s.evs {
		if a.Kind <= event.Write {
			out[ownerOf(a.Addr, w, powerOfTwoMask(w))]++
		}
	}
	return out
}

// corpus is every stream the harness runs, built once per TestEquivalence
// and shared by its rows: the golden streams (equivSuite, synth, mt-4threads
// and, without -short, each workload captured by interp.Run at
// goldenWorkloadScale) and the hand-built edge streams.
func corpus(t *testing.T) []*equivStream {
	cs := append(equivSuite(),
		newStream("synth", gSynth, prog.NewMeta(), synthStream(1<<16, 512, 7)),
		newStream("mt-4threads", gSynth, prog.NewMeta(), mtThreadStream(4, 20000)),
		producerEdges(), rangeEdges(), loopUnionStream(), tightThreads(), dupReads(),
		newWireStream("mt-batch", gHand, prog.NewMeta(), mtBatchStream(rand.New(rand.NewSource(0)), 12000)))
	for _, w := range workloads.All() {
		if testing.Short() {
			break
		}
		p := w.Build(workloads.Config{Scale: goldenWorkloadScale, Threads: 4})
		evs, err := capture(p)
		if err != nil {
			t.Fatal(err)
		}
		g := gWork
		if w.Name == "CG" {
			g |= gTight
		}
		cs = append(cs, newStream("wl-"+w.Name, g, p.Meta, evs))
	}
	return cs
}

// capture is p's access stream under the reference executor.
func capture(p *minilang.Program) ([]event.Access, error) {
	rec := event.NewRecorder()
	if _, err := interp.Run(p, rec, interp.Options{}); err != nil {
		return nil, fmt.Errorf("capture %s: %v", p.Name, err)
	}
	return rec.Events(), nil
}

// seam is one way of handing a stream to a profiler.
type seam struct {
	name string
	wire bool // hands over the wire form: its ranges count
	feed func(*Profiler, *equivStream)
}

var (
	seamEvent = seam{name: "event", feed: func(p *Profiler, s *equivStream) {
		for _, a := range s.evs {
			p.Access(a)
		}
	}}
	// seamThreads is how the fixtures feed: a batch ends where the stream
	// changes threads, as a target thread's does (the executors' also end at
	// release operations, which a recording does not show).
	seamThreads = seam{name: "threads", feed: func(p *Profiler, s *equivStream) {
		for evs := s.evs; len(evs) > 0; {
			n := 1
			for n < len(evs) && evs[n].Thread == evs[0].Thread {
				n++
			}
			p.AccessBatch(evs[:n], nil)
			evs = evs[n:]
		}
	}}
	seamUneven = seam{name: "uneven", feed: feedUneven}
	seamCuts   = seam{name: "cuts", wire: true, feed: feedCuts}
	seamRanges = seam{name: "ranges", wire: true, feed: func(p *Profiler, s *equivStream) {
		w := s.wireForm()
		p.AccessBatch(w.slots, w.rngs)
	}}
)

// feedUneven hands s over in batches of 1, 7 and 1024 events in turn.
func feedUneven(p *Profiler, s *equivStream) {
	for i, evs := 0, s.evs; len(evs) > 0; i++ {
		n := min(len(evs), [...]int{1, 7, 1024}[i%3])
		p.AccessBatch(evs[:n], nil)
		evs = evs[n:]
	}
}

// feedCuts hands s's wire form over cut at random points, seeded by the
// stream: mostly short batches, a third of them up to three segments long —
// longer than a claim segment and than a short ring.
func feedCuts(p *Profiler, s *equivStream) {
	w := s.wireForm()
	r := rand.New(rand.NewSource(int64(len(s.evs))))
	for rest := w.slots; len(rest) > 0; {
		n := 1 + r.Intn(16)
		if r.Intn(3) == 0 {
			n = 1 + r.Intn(3*event.BatchSize)
		}
		n = min(n, len(rest))
		p.AccessBatch(rest[:n], w.rngs)
		rest = rest[n:]
	}
}

// rowConfig is one pipeline configuration of the table: over the perfect
// table, or over a signature of slots indices, tight (smaller than the
// footprint of every stream it runs) or wider than it.
type rowConfig struct {
	name      string
	cfg       Config
	slots     int
	tight     bool
	pin       bool // the fixtures pin it on the golden streams at the threads seam, under name
	telemetry bool // its runs carry a telemetry sink
}

func (c rowConfig) workers() int {
	if c.cfg.Mode == ModeSerial {
		return 1
	}
	return c.cfg.Workers
}

func (c rowConfig) race() bool { return c.cfg.Mode == ModeMT || c.cfg.RaceCheck }

var serialRow = rowConfig{name: "serial", pin: true}

type row struct {
	c       rowConfig
	sm      seam
	streams uint8
}

// harnessRows is the table: every pipeline × seam pairing, each over the
// streams it has something to show on.
func harnessRows() (rows []row) {
	par := func(w, q int) rowConfig {
		return rowConfig{name: fmt.Sprintf("par%d", w), cfg: Config{Mode: ModeParallel, Workers: w, QueueCap: q}}
	}
	par1, par2, par3, par4, par8 := par(1, 64), par(2, 64), par(3, 64), par(4, 256), par(8, 0)
	par2.telemetry, par3.pin, par8.pin = true, true, true
	lock := rowConfig{name: "par8-lock", cfg: Config{Mode: ModeParallel, Workers: 8, LockBased: true}, pin: true}
	mt2 := rowConfig{name: "mt2", cfg: Config{Mode: ModeMT, Workers: 2, QueueCap: 256}, telemetry: true}
	mt4 := rowConfig{name: "mt4", cfg: Config{Mode: ModeMT, Workers: 4}, pin: true}
	add := func(sm seam, streams uint8, cs ...rowConfig) {
		for _, c := range cs {
			rows = append(rows, row{c, sm, streams})
		}
	}
	add(seamThreads, gGolden|gHand, serialRow, par8, lock, par3, mt4)
	add(seamThreads, gSuite|gHand, par1, par2, par4, mt2)
	add(seamEvent, gSuite|gHand|gSynth, serialRow, par1, par2, par3, par4, par8, lock, mt2, mt4)
	add(seamUneven, gSuite|gHand, serialRow, par3, mt2)
	add(seamCuts, gSuite|gHand, serialRow, par3, mt2, mt4)
	add(seamRanges, gGolden|gHand, serialRow, par4, mt2)
	add(seamRanges, gSuite|gHand, par1, par2, par3, par8)
	// Signatures wider than every stream they run: the exact profile, at the
	// store's full size.
	add(seamEvent, gSuite|gSynth,
		rowConfig{name: "serial-sig2^16", slots: 1 << 16},
		rowConfig{name: "par4-sig2^18", cfg: par4.cfg, slots: 1 << 18, telemetry: true})
	// Tight signatures: W workers sharing m indices report what W unsharded
	// m-slot signatures fed the residue classes of ownerOf report — sharding
	// moves no collision — and, when W divides m, what one serial m-slot
	// signature reports, whatever Workers the serial profiler is given.
	for _, mw := range [][2]int{{64, 2}, {96, 4}, {1000, 8}, {100, 3}, {96, 5}} {
		for _, mode := range []Mode{ModeParallel, ModeMT} {
			add(seamThreads, gTight, rowConfig{name: fmt.Sprintf("%s%d-sig%d", map[Mode]string{ModeParallel: "par", ModeMT: "mt"}[mode], mw[1], mw[0]),
				cfg: Config{Mode: mode, Workers: mw[1]}, slots: mw[0], tight: true, telemetry: mw[1] == 2})
		}
	}
	add(seamEvent, gTight, rowConfig{name: "serial-sig96", cfg: Config{Workers: 4}, slots: 96, tight: true})
	add(seamRanges, gTight,
		rowConfig{name: "par8-sig64", cfg: Config{Mode: ModeParallel, Workers: 8}, slots: 64, tight: true},
		rowConfig{name: "mt3-sig64", cfg: Config{Mode: ModeMT, Workers: 3, QueueCap: 64}, slots: 64, tight: true})
	return rows
}

// TestEquivalence runs the table's rows in parallel, then holds the pinned
// rows' digests and counters to the fixtures (or, with -update-goldens,
// rewrites them).
func TestEquivalence(t *testing.T) {
	streams := corpus(t)
	var mu sync.Mutex
	digests, counters := map[string]string{}, map[string]string{}
	pinned, ran := 0, atomic.Int32{}
	t.Cleanup(func() { // after every row
		if !testing.Short() && int(ran.Load()) == pinned { // the fixtures cover the workloads and every pinned row
			fixture(t, "testdata/goldens.json", digests)
			fixture(t, "testdata/transport_counters.json", counters)
		}
	})
	for _, r := range harnessRows() {
		pin := r.c.pin && r.sm.name == seamThreads.name
		if pin {
			pinned++
		}
		t.Run(r.c.name+"/"+r.sm.name, func(t *testing.T) {
			t.Parallel()
			runRow(t, r, streams, func(s *equivStream, got *Result) {
				mu.Lock()
				defer mu.Unlock()
				if key := s.name + "/" + r.c.name; pin && s.group&gGolden != 0 {
					counters[key] = transportCounters(got)
					if r.c.cfg.Mode != ModeParallel { // a §IV profile is serial's
						digests[key] = digestResult(got)
					}
				}
			})
			if pin {
				ran.Add(1)
			}
		})
	}
}

// runRow runs r over its streams, holds each profile to its reference, hands
// it to pin, and checks the row's vacuity guards: what the comparisons would
// pass without showing (the serial profile of every stream, held to the
// emptied cache's, hits the instance cache).
func runRow(t *testing.T, r row, streams []*equivStream, pin func(*equivStream, *Result)) {
	var ranges uint64
	reversed, everyFed, threaded := 0, false, false
	for _, s := range streams {
		if s.group&r.streams == 0 {
			continue
		}
		var got *Result
		if r.c == serialRow && r.sm.name == seamThreads.name {
			if _, got = s.memo("serial", func() *Result { return run(t, serialRow, seamThreads, s) }); got.Stats.DepCacheHits == 0 {
				t.Errorf("%s: the instance cache never hit in %d probes", s.name, got.Stats.DepCacheProbes)
			}
		} else {
			got = run(t, r.c, r.sm, s)
		}
		if kind, want := reference(t, r.c, s); profileDiff(want, got) != "" {
			t.Errorf("%s: the profile is not the %s one: %s", s.name, kind, profileDiff(want, got))
		}
		if r.c.tight && profileDiff(exactRef(t, s, r.c.race()), got) == "" {
			t.Errorf("%s: the exact store's profile: the signature is not tight", s.name)
		}
		pin(s, got)
		ranges, reversed = ranges+got.Stats.Ranges, reversed+countReversed(got.Deps)
		everyFed = everyFed || r.c.cfg.Mode != ModeSerial && !slices.Contains(got.WorkerEvents, 0)
		threaded = threaded || s.threaded
	}
	switch {
	case r.c.cfg.Mode != ModeSerial && !everyFed:
		t.Error("no stream fed every worker")
	case r.sm.wire && ranges == 0:
		t.Error("no range handed over: the ranges are not tested")
	case r.c.race() && !r.c.tight && threaded && reversed == 0:
		t.Error("no dependence flagged: the race rule is not tested")
	}
}

// reference is what c's profile of s is held to, and its kind.
func reference(t *testing.T, c rowConfig, s *equivStream) (string, *Result) {
	race := c.race() && s.threaded
	switch {
	case c.tight:
		w := c.workers()
		if c.slots%w == 0 {
			w = 1 // one m-slot signature's profile
		}
		return s.memo(fmt.Sprintf("residue reference m=%d W=%d race=%v", c.slots, w, race), func() *Result {
			return residueReference(s, c.slots, w, race)
		})
	case c.cfg.Mode == ModeParallel && !race:
		return s.memo("serial", func() *Result { return run(t, serialRow, seamThreads, s) })
	}
	return "exact", exactRef(t, s, race)
}

// exactRef is the reference of every exact store: s through one Engine over
// the perfect table with nothing in front of it — no routing, no run kernel
// and so no fold — and its instance cache emptied before every event, so every
// instance is classified afresh and goes through the dependence set's and the
// loop aggregates' Ref: Algorithm 1 with a map operation per
// instance and no memo. A race check on a stream with no pairs to judge is
// the stream's race-free profile.
func exactRef(t *testing.T, s *equivStream, race bool) *Result {
	race = race && s.threaded
	_, r := s.memo(fmt.Sprintf("exact race=%v", race), func() *Result {
		eng := NewEngine(sig.NewPerfectSignature(), s.meta, race)
		for _, a := range s.evs {
			clear(eng.cache[:])
			eng.Process(a)
		}
		if h, p := eng.CacheStats(); h != 0 || p == 0 {
			t.Errorf("%s: the emptied cache hit %d of %d probes, want 0 of > 0", s.name, h, p)
		}
		return &Result{Deps: eng.Deps(), Loops: eng.LoopDeps(), Stats: RunStats{Accesses: s.accesses}}
	})
	return r
}

// residueReference is what a w-worker profiler over m-slot signatures
// reported before its workers' signatures were sharded: one engine per
// residue class of ownerOf, each over an unsharded m-slot signature and fed
// its class in stream order, merged by the pipeline's own merge stage.
func residueReference(s *equivStream, m, w int, raceCheck bool) *Result {
	pl := new(Profiler)
	for i := 0; i < w; i++ {
		pl.workers = append(pl.workers, &worker{id: i, eng: NewEngine(sig.NewSignature(m), s.meta, raceCheck)})
	}
	for _, a := range s.evs {
		pl.workers[ownerOf(a.Addr, w, powerOfTwoMask(w))].eng.Process(a)
	}
	return pl.merge(RunStats{Accesses: s.accesses})
}

// run profiles s through c at seam sm and holds the run to checkRun.
func run(t *testing.T, c rowConfig, sm seam, s *equivStream) *Result {
	t.Helper()
	cfg := c.cfg
	cfg.Meta, cfg.Backend, cfg.SlotsPerWorker = s.meta, "perfect", c.slots
	if c.slots > 0 {
		cfg.Backend = ""
	}
	var reg *telemetry.Registry
	if c.telemetry {
		reg = telemetry.NewRegistry()
		cfg.Metrics = reg.Pipeline("t")
	}
	p := mustNew(t, cfg)
	sm.feed(p, s)
	res := p.Flush()
	checkRun(t, c, sm, s, p, res, reg)
	return res
}

// checkRun holds a run to what every run keeps, whatever its reference: it
// counts every access, each worker processes what ownerOf routes to it, the
// ranges handed over are counted, a
// signature's W workers hold its slots between them
// when W divides them, and a telemetry sink's final counters and gauges are
// the run's and its stores'.
func checkRun(t *testing.T, c rowConfig, sm seam, s *equivStream, p *Profiler, res *Result, reg *telemetry.Registry) {
	t.Helper()
	st, w := res.Stats, c.workers()
	var rngs []event.Range
	if sm.wire {
		rngs = s.wireForm().rngs
	}
	var ranges, elems uint64
	for _, r := range rngs {
		if r.Count > 0 && r.Kind <= event.Write {
			ranges, elems = ranges+1, elems+uint64(r.Count)
		}
	}
	switch {
	case st.Accesses != s.accesses:
		t.Errorf("%s: %d accesses, want %d", s.name, st.Accesses, s.accesses)
	case c.cfg.Mode != ModeSerial && !slices.Equal(res.WorkerEvents, s.fed(w)):
		t.Errorf("%s: WorkerEvents %v, want what ownerOf routes, %v", s.name, res.WorkerEvents, s.fed(w))
	case st.Ranges != ranges || st.RangeElements != elems:
		t.Errorf("%s: %d ranges of %d elements counted, want %d of %d", s.name, st.Ranges, st.RangeElements, ranges, elems)
	}
	if rec := uint64(unsafe.Sizeof(sig.Pair{})); c.slots > 0 && c.slots%w == 0 {
		if c.race() {
			rec += uint64(unsafe.Sizeof(sig.Stamps(0)))
		}
		if m := uint64(c.slots); st.StoreBytes != m*rec || st.StoreModeledBytes != 4*m {
			t.Errorf("%s: stores hold %d bytes (%d modeled), want %d indices of %d B (4 B)", s.name, st.StoreBytes, st.StoreModeledBytes, m, rec)
		}
	}
	if reg == nil {
		return
	}
	pipe := reg.Pipeline("t")
	occupied, permille := 0.0, uint64(0) // the signatures' summed and mean write-slot occupancy
	for _, w := range p.workers {
		if g, ok := w.eng.Store().(*sig.Signature); ok {
			occupied += g.Occupancy()
			permille = uint64(occupied / float64(len(p.workers)) * 1000)
		}
	}
	deepest := int64(0)
	for i := 0; i < w && c.cfg.Mode != ModeSerial; i++ {
		if d := pipe.QueueDepth[i].Load(); d <= 0 {
			t.Errorf("%s: worker %d queue depth %d", s.name, i, d)
		} else {
			deepest = max(deepest, d)
		}
	}
	for _, m := range []struct {
		name      string
		got, want uint64
	}{
		{"events_total", pipe.Events.Load(), st.Accesses},
		{"dep_cache_hits_total", pipe.DepCacheHits.Load(), st.DepCacheHits},
		{"dep_cache_probes_total", pipe.DepCacheProbes.Load(), st.DepCacheProbes},
		{"ranges_total", pipe.Ranges.Load(), st.Ranges},
		{"range_elements_total", pipe.RangeElements.Load(), st.RangeElements},
		{"store_bytes", uint64(pipe.StoreBytes.Load()), st.StoreBytes},
		{"sig_occupancy_permille", uint64(pipe.SigOccupancyPermille.Load()), permille},
		{"queue_depth_max (the workers' deepest)", uint64(pipe.QueueDepthMax.Load()), uint64(deepest)},
	} {
		if m.got != m.want {
			t.Errorf("%s: %s = %d, want %d", s.name, m.name, m.got, m.want)
		}
	}
	var text strings.Builder
	reg.WriteText(&text)
	for _, line := range strings.Split(strings.TrimSpace(text.String()), "\n") {
		if name := strings.Fields(line)[0]; strings.Contains(name, "_stage_") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p99") {
			t.Errorf("%s: the exposition carries a histogram line: %q", s.name, line)
		}
	}
}

// profileDiff is the one profile comparator: "" when got is want in all a
// profile reports — every dependence with all its stats, the loop table and
// the access count — else the first difference.
func profileDiff(want, got *Result) (diff string) {
	if w, g := want.Stats.Accesses, got.Stats.Accesses; w != g {
		return fmt.Sprintf("%d accesses, want %d", g, w)
	}
	if w, g := want.Deps.Unique(), got.Deps.Unique(); w != g {
		return fmt.Sprintf("%d dependences, want %d", g, w)
	}
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if gst, ok := got.Deps.Lookup(k); !ok || gst != st {
			diff = fmt.Sprintf("dependence %+v: %+v (present: %v), want %+v", k, gst, ok, st)
		}
		return diff == ""
	})
	if diff == "" && len(want.Loops) != len(got.Loops) {
		return fmt.Sprintf("%d loops, want %d", len(got.Loops), len(want.Loops))
	}
	for id, w := range want.Loops {
		if g := got.Loops[id]; diff == "" && (g == nil || *g != *w) {
			return fmt.Sprintf("loop %d: %+v, want %+v", id, g, *w)
		}
	}
	return diff
}

// sameProfile fails t unless got is want (profileDiff).
func sameProfile(t testing.TB, label string, want, got *Result) {
	t.Helper()
	if d := profileDiff(want, got); d != "" {
		t.Errorf("%s: %s", label, d)
	}
}

func countReversed(s *dep.Set) (n int) {
	s.Range(func(_ dep.Key, st dep.Stats) bool {
		if st.Reversed {
			n++
		}
		return true
	})
	return n
}

// mustNew is New for tests: a Config New refuses fails the test.
func mustNew(t testing.TB, cfg Config) *Profiler {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzMTBatchEquivalence is the cuts seam under the fuzz engine (in `make
// fuzz`): the seed picks an mtBatchStream, an MT configuration — up to 70
// workers, more rings than a segment has events — and the cuts, and the run
// is held to checkRun and to the exact race-checking reference.
func FuzzMTBatchEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		s := newWireStream("mt-batch", gHand, prog.NewMeta(), mtBatchStream(r, 12000+r.Intn(12000)))
		c := rowConfig{name: "mt", cfg: Config{Mode: ModeMT, Workers: 2 + r.Intn(3), QueueCap: 64 << r.Intn(4)}}
		if seed%5 == 4 {
			c.cfg.Workers = 70
		}
		got := run(t, c, seamCuts, s)
		sameProfile(t, fmt.Sprintf("seed %d", seed), exactRef(t, s, true), got)
		if countReversed(got.Deps) == 0 {
			t.Errorf("seed %d: no dependence flagged; the stream no longer exercises the race rule", seed)
		}
	})
}

// digestResult hashes a profile the way the fixtures hold it: the dependence
// set with all per-key stats, the loop aggregates and the access count.
func digestResult(res *Result) string {
	h, keys := sha256.New(), res.Deps.Keys()
	slices.SortFunc(keys, func(a, b dep.Key) int {
		return cmp.Or(cmp.Compare(a.Type, b.Type), cmp.Compare(a.Src, b.Src), cmp.Compare(a.Sink, b.Sink),
			cmp.Compare(a.SrcThread, b.SrcThread), cmp.Compare(a.SinkThread, b.SinkThread), cmp.Compare(a.Var, b.Var))
	})
	for _, k := range keys {
		st, _ := res.Deps.Lookup(k)
		fmt.Fprintf(h, "dep %+v %+v\n", k, st)
	}
	for _, id := range slices.Sorted(maps.Keys(res.Loops)) {
		fmt.Fprintf(h, "loop %d %+v\n", id, *res.Loops[id])
	}
	fmt.Fprintf(h, "accesses %d\n", res.Stats.Accesses)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// transportCounters renders a mode's deterministic counter: the engines'
// instance-cache misses. A miss count does not depend on how a worker's
// stream was cut into runs: a read the run kernel folds would have hit.
func transportCounters(res *Result) string {
	return fmt.Sprintf("miss %d", res.Stats.DepCacheProbes-res.Stats.DepCacheHits)
}

// fixture holds got to the committed fixture file at path, or with
// -update-goldens rewrites the file from it.
func fixture(t *testing.T, path string, got map[string]string) {
	if *updateGoldens {
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := map[string]string{}
	if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &want) != nil {
		t.Fatalf("%s: unreadable (%v); regenerate with -update-goldens on a known-good build", path, err)
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			want[key] = "" // produced, but not in the fixture
		}
	}
	for key, w := range want {
		if g := got[key]; g != w {
			t.Errorf("%s: %s is %q, the fixture's %q (\"\": none); regenerate with -update-goldens only after an intended change", path, key, g, w)
		}
	}
}
