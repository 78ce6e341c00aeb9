package ddprof_test

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"ddprof"
	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/trace"
	"ddprof/internal/workloads"
)

// buildDemo constructs a program with one clean loop, one reduction and one
// recurrence.
func buildDemo() *ddprof.Program {
	p := ddprof.NewProgram("demo")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("n", ddprof.Ci(200))
		b.DeclArr("a", ddprof.V("n"))
		b.Decl("sum", ddprof.Ci(0))
		b.For("i", ddprof.Ci(0), ddprof.V("n"), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "fill", OMP: true}, func(l *ddprof.Block) {
				l.Set("a", ddprof.V("i"), ddprof.Mul(ddprof.V("i"), ddprof.Ci(3)))
			})
		b.For("i", ddprof.Ci(0), ddprof.V("n"), ddprof.Ci(1),
			ddprof.LoopOpt{Name: "sum", OMP: true}, func(l *ddprof.Block) {
				l.Reduce("sum", ddprof.OpAdd, ddprof.Idx("a", ddprof.V("i")))
			})
	})
	return p
}

func TestProfileModes(t *testing.T) {
	for _, mode := range []ddprof.Mode{
		ddprof.ModeSerial, ddprof.ModeParallel, ddprof.ModeMT,
	} {
		res, err := ddprof.Profile(buildDemo(), ddprof.Config{Mode: mode, Workers: 4})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Deps.Unique() == 0 || res.Accesses == 0 {
			t.Fatalf("mode %d: empty result", mode)
		}
		if res.Mode != mode {
			t.Errorf("mode %d: a spawn-free target ran under mode %d", mode, res.Mode)
		}
		par := res.ParallelizableLoops()
		if len(par) != 1 || par[0] != "fill" {
			t.Errorf("mode %d: parallelizable = %v, want [fill]", mode, par)
		}
	}
}

// TestProfileSpawningTargetAnyMode: the serial and parallel profilers take
// events from one goroutine only, so a target that spawns threads runs under
// ModeMT whatever mode the caller asked for — Profile derives it from the
// program. (Asking for ModeSerial used to put four target threads inside one
// serial engine: a data race, which -race reports at the parent commit.) The
// digest leaves out thread IDs and counts, which follow lock-acquisition
// order; everything else about a properly locked counter is fixed.
func TestProfileSpawningTargetAnyMode(t *testing.T) {
	build := func() *ddprof.Program {
		p := ddprof.NewProgram("locked-counter")
		p.MainFunc(func(b *ddprof.Block) {
			b.Decl("counter", ddprof.Ci(0))
			b.Spawn(4, func(s *ddprof.Block) {
				s.For("i", ddprof.Ci(0), ddprof.Ci(400), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "inc"}, func(l *ddprof.Block) {
						l.Lock("m", func(cr *ddprof.Block) {
							cr.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
						})
					})
			})
		})
		return p
	}
	digest := func(set *dep.Set) string {
		var keys []string
		set.Range(func(k dep.Key, _ dep.Stats) bool {
			keys = append(keys, fmt.Sprintf("%v %v<-%v var%d", k.Type, k.Sink, k.Src, k.Var))
			return true
		})
		slices.Sort(keys)
		return strings.Join(slices.Compact(keys), "\n")
	}
	var want string
	for _, mode := range []ddprof.Mode{ddprof.ModeSerial, ddprof.ModeParallel, ddprof.ModeMT} {
		res, err := ddprof.Profile(build(), ddprof.Config{Mode: mode, Workers: 4, Backend: "perfect"})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Mode != ddprof.ModeMT {
			t.Errorf("mode %d: ran under mode %d, want ModeMT", mode, res.Mode)
		}
		if res.Races != 0 {
			t.Errorf("mode %d: %d races flagged on a locked counter", mode, res.Races)
		}
		got := digest(res.Deps)
		if want == "" {
			want = got
		}
		if got == "" || got != want {
			t.Errorf("mode %d: dependences differ from ModeSerial's:\n%s\nwant:\n%s", mode, got, want)
		}
	}
}

func TestProfileExactMatchesSignature(t *testing.T) {
	exact, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := ddprof.Profile(buildDemo(), ddprof.Config{Slots: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Deps.Unique() != sig.Deps.Unique() {
		t.Errorf("exact %d deps vs signature %d", exact.Deps.Unique(), sig.Deps.Unique())
	}
}

// TestSlotsNameOneSignature: Config.Slots sizes the one signature every mode
// profiles with, so at a signature tight enough to collide, serial, parallel
// over four workers and the spec spelling of the same size save
// byte-identical profiles.
func TestSlotsNameOneSignature(t *testing.T) {
	wl, ok := workloads.ByName("rotate")
	if !ok {
		t.Fatal("no rotate workload")
	}
	const slots = 1024
	var want []byte
	for _, cfg := range []ddprof.Config{
		{Slots: slots},
		{Mode: ddprof.ModeParallel, Workers: 4, Slots: slots},
		{Workers: 4, Backend: fmt.Sprintf("signature:slots=%d", slots)},
	} {
		res, err := ddprof.Profile(wl.Build(workloads.Config{Scale: 0.2}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.SaveBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%+v: %d profile bytes, %d dependences; serial saved %d bytes", cfg, buf.Len(), res.Deps.Unique(), len(want))
		}
	}
}

func TestWriteDepsFormat(t *testing.T) {
	res, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.WriteDeps(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"BGN loop", "END loop 200", "NOM", "{RAW", "{INIT *}", "|sum}"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunNative(t *testing.T) {
	vars, err := ddprof.Run(buildDemo())
	if err != nil {
		t.Fatal(err)
	}
	if vars["sum"] != 3*199*200/2 {
		t.Errorf("sum = %v", vars["sum"])
	}
}

func TestMTModeRacesAndCommunication(t *testing.T) {
	p := ddprof.NewProgram("racy")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("shared", ddprof.Ci(0))
		b.Spawn(4, func(s *ddprof.Block) {
			s.For("i", ddprof.Ci(0), ddprof.Ci(300), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "unlocked"}, func(l *ddprof.Block) {
					// Unsynchronized read-modify-write: a data race.
					l.Assign("shared", ddprof.Add(ddprof.V("shared"), ddprof.Ci(1)))
				})
		})
	})
	res, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeMT, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Communication(4)
	if m.Threads != 4 {
		t.Fatal("bad matrix")
	}
	// Cross-thread RAW on the shared counter must appear.
	if m.CrossThread() == 0 {
		t.Error("no cross-thread communication on a shared counter")
	}
}

// TestRaceFlaggingLockedVsUnlocked is the §V-B end-to-end check: the same
// shared-counter update yields reversed-timestamp dependences only when the
// mutex is removed. SchedulerFuzz makes the interleavings appear even on a
// single-core machine.
func TestRaceFlaggingLockedVsUnlocked(t *testing.T) {
	build := func(locked bool) *ddprof.Program {
		p := ddprof.NewProgram("counter")
		p.MainFunc(func(b *ddprof.Block) {
			b.Decl("counter", ddprof.Ci(0))
			b.Spawn(4, func(s *ddprof.Block) {
				s.For("i", ddprof.Ci(0), ddprof.Ci(1500), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "inc"}, func(l *ddprof.Block) {
						inc := func(cr *ddprof.Block) {
							cr.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
						}
						if locked {
							l.Lock("m", inc)
						} else {
							inc(l)
						}
					})
			})
		})
		return p
	}
	cfg := ddprof.Config{Mode: ddprof.ModeMT, Workers: 4, SchedulerFuzz: 7}
	lockedRes, err := ddprof.Profile(build(true), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lockedRes.Races != 0 {
		t.Errorf("locked counter flagged %d races; mutual exclusion keeps access+push atomic", lockedRes.Races)
	}
	unlockedRes, err := ddprof.Profile(build(false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if unlockedRes.Races == 0 {
		t.Error("unlocked counter flagged no races under scheduler fuzz")
	}
}

// TestProfileUnion covers the §I input-sensitivity story: a loop that is
// clean under one input but carried under another must be reported as not
// parallelizable in the union.
func TestProfileUnion(t *testing.T) {
	// The loop copies a[i] = a[i+shift]; with shift=0 it is independent,
	// with shift=1 it reads the next element (carried WAR? no: reads
	// a[i+1] written in a later iteration => WAR; use a[i-1] to get RAW).
	build := func(lag int) func() *ddprof.Program {
		return func() *ddprof.Program {
			p := ddprof.NewProgram("union")
			p.MainFunc(func(b *ddprof.Block) {
				b.Decl("n", ddprof.Ci(50))
				b.DeclArr("a", ddprof.V("n"))
				b.For("i", ddprof.Ci(1), ddprof.V("n"), ddprof.Ci(1),
					ddprof.LoopOpt{Name: "copy", OMP: true}, func(l *ddprof.Block) {
						l.Set("a", ddprof.V("i"),
							ddprof.Add(ddprof.Idx("a", ddprof.Sub(ddprof.V("i"), ddprof.Ci(lag))), ddprof.Ci(1)))
					})
			})
			return p
		}
	}
	cfg := ddprof.Config{Backend: "perfect"}

	clean, err := ddprof.Profile(build(0)(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.ParallelizableLoops()) != 1 {
		t.Fatalf("lag-0 input should be parallelizable: %+v", clean.Loops)
	}

	union, err := ddprof.ProfileUnion([]func() *ddprof.Program{build(0), build(1)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(union.ParallelizableLoops()) != 0 {
		t.Errorf("union must be pessimistic: %v", union.ParallelizableLoops())
	}
	if union.Accesses <= clean.Accesses {
		t.Error("union should accumulate accesses across inputs")
	}

	if _, err := ddprof.ProfileUnion(nil, cfg); err == nil {
		t.Error("empty builds accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	res, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var bin strings.Builder
	if err := res.SaveBinary(&bin); err != nil {
		t.Fatal(err)
	}
	set, loops, err := ddprof.LoadProfile(strings.NewReader(bin.String()))
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != res.Deps.Unique() {
		t.Errorf("binary round trip lost deps: %d vs %d", set.Unique(), res.Deps.Unique())
	}
	if len(loops) != 2 {
		t.Errorf("loop records = %d, want 2", len(loops))
	}

	var txt strings.Builder
	if err := res.WriteDeps(&txt); err != nil {
		t.Fatal(err)
	}
	pset, ploops, err := ddprof.ParseProfile(strings.NewReader(txt.String()))
	if err != nil {
		t.Fatal(err)
	}
	if pset.Unique() != res.Deps.Unique() {
		t.Errorf("text round trip lost deps: %d vs %d", pset.Unique(), res.Deps.Unique())
	}
	if len(ploops) != 2 {
		t.Errorf("text loop records = %d", len(ploops))
	}
}

func TestBadMode(t *testing.T) {
	if _, err := ddprof.Profile(buildDemo(), ddprof.Config{Mode: ddprof.Mode(99)}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// sharedCounter builds the program of examples/racedetect: four threads
// incrementing one counter, under a mutex or not.
func sharedCounter(locked bool) *ddprof.Program {
	p := ddprof.NewProgram("counter")
	p.MainFunc(func(b *ddprof.Block) {
		b.Decl("counter", ddprof.Ci(0))
		b.Spawn(4, func(s *ddprof.Block) {
			s.For("i", ddprof.Ci(0), ddprof.Ci(500), ddprof.Ci(1),
				ddprof.LoopOpt{Name: "inc"}, func(l *ddprof.Block) {
					inc := func(cr *ddprof.Block) {
						cr.Reduce("counter", ddprof.OpAdd, ddprof.Ci(1))
					}
					if locked {
						l.Lock("m", inc)
					} else {
						inc(l)
					}
				})
		})
	})
	return p
}

// TestRecordedTraceKeepsRaces: a recorded trace of a spawning target carries
// its sync-epoch stamps, so ProfileTrace under ModeMT flags the unlocked
// counter's races and none of the locked one's, as Profile does.
func TestRecordedTraceKeepsRaces(t *testing.T) {
	for _, locked := range []bool{false, true} {
		var buf bytes.Buffer
		if _, err := ddprof.RecordTrace(sharedCounter(locked), &buf); err != nil {
			t.Fatal(err)
		}
		set, err := ddprof.ProfileTrace(&buf, ddprof.Config{Mode: ddprof.ModeMT, Backend: "perfect"})
		if err != nil {
			t.Fatal(err)
		}
		races := analysis.CountRaces(set)
		if locked && races != 0 || !locked && races == 0 {
			t.Errorf("locked=%v: %d races through the recorded trace, want %s", locked, races, map[bool]string{false: "> 0", true: "0"}[locked])
		}
	}
}

func TestRecordAndProfileTrace(t *testing.T) {
	var buf strings.Builder
	n, err := ddprof.RecordTrace(buildDemo(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events recorded")
	}
	live, err := ddprof.Profile(buildDemo(), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	set, err := ddprof.ProfileTrace(strings.NewReader(buf.String()), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != live.Deps.Unique() {
		t.Errorf("trace profile %d deps vs live %d", set.Unique(), live.Deps.Unique())
	}
	if set.Instances() != live.Deps.Instances() {
		t.Errorf("trace instances %d vs live %d", set.Instances(), live.Deps.Instances())
	}

	// A trace written through trace.Compactor carries range records: two
	// strided sweeps over one array, a write run then a read run. ProfileTrace
	// must profile them as their points.
	var evs []event.Access
	for pass, kind := range []event.Kind{event.Write, event.Read} {
		for i := uint64(0); i < 64; i++ {
			evs = append(evs, event.Access{Addr: 0x1000 + 8*i, Kind: kind, Loc: loc.Pack(1, 10+pass), Var: 1})
		}
	}
	var rbuf bytes.Buffer
	tw, err := trace.NewWriter(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	comp := trace.NewCompactor(tw)
	for _, a := range evs {
		comp.Access(a)
	}
	if err := comp.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(bytes.NewReader(rbuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	if _, err := tr.NextBatch(c); len(c.Ranges) != 2 {
		t.Fatalf("compacted trace decodes to %d range records (%v), want 2", len(c.Ranges), err)
	}
	ref, err := core.New(core.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range evs {
		ref.Access(a)
	}
	wantDeps := ref.Flush().Deps
	got, err := ddprof.ProfileTrace(bytes.NewReader(rbuf.Bytes()), ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	var wantBin, gotBin bytes.Buffer
	tab := loc.NewTable()
	if err := dep.Encode(&wantBin, wantDeps, tab, nil); err != nil {
		t.Fatal(err)
	}
	if err := dep.Encode(&gotBin, got, tab, nil); err != nil {
		t.Fatal(err)
	}
	if wantDeps.Unique() == 0 || !bytes.Equal(wantBin.Bytes(), gotBin.Bytes()) {
		t.Errorf("ranged trace: %d deps (%d instances), want the %d (%d) of its points",
			got.Unique(), got.Instances(), wantDeps.Unique(), wantDeps.Instances())
	}
}
