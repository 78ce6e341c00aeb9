package core

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// The golden suite pins the profiles of every pipeline mode to fixtures
// captured before the pipeline-core refactor. Each (stream, mode) pair hashes
// the full user-visible profile — the dependence set with all per-key stats,
// the loop aggregates, and the deterministic pipeline counters — so any
// behavioral drift in the producer, transport, worker loop, or merge stage
// fails the comparison byte-for-byte.
//
// Regenerate (only when an intentional profile change is made) with:
//
//	go test ./internal/core/ -run TestGoldenProfiles -update-goldens

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens.json from the current build")

const goldenPath = "testdata/goldens.json"

// goldenWorkloadScale keeps the full-suite capture fast while still pushing
// hundreds of thousands of events through every mode.
const goldenWorkloadScale = 0.5

// goldenCap records an interpreter run's access stream for replay.
type goldenCap struct{ evs []event.Access }

func (c *goldenCap) Access(a event.Access) { c.evs = append(c.evs, a) }

// mtThreadStream builds a deterministic 4-thread target stream: per-thread
// private accesses, cross-thread shared writes, and periodic timestamp
// reversals that must surface as Reversed dependences (§V-B).
func mtThreadStream(threads, n int) []event.Access {
	var evs []event.Access
	ts := uint64(1)
	for i := 0; i < n; i++ {
		th := int32(i % threads)
		priv := 0x10000 + uint64(th)*0x1000 + uint64(i%128)*8
		shared := 0x20000 + uint64(i%32)*8
		evs = append(evs,
			event.Access{Addr: priv, Kind: event.Write, Loc: loc.Pack(9, 90), Thread: th, TS: ts},
			event.Access{Addr: priv, Kind: event.Read, Loc: loc.Pack(9, 91), Thread: th, TS: ts + 1},
			event.Access{Addr: shared, Kind: event.Write, Loc: loc.Pack(9, 92), Thread: th, TS: ts + 2},
		)
		if i%7 == 0 {
			// A read stamped before the write it follows: not mutually
			// exclusive, must be flagged as a potential race.
			evs = append(evs, event.Access{Addr: shared, Kind: event.Read, Loc: loc.Pack(9, 93), Thread: (th + 1) % int32(threads), TS: ts})
		}
		ts += 4
	}
	return evs
}

// runFunc is the signature interp.Run (the reference) and vm.Run (production)
// share; the tests that hold one to the other take either.
type runFunc = func(*minilang.Program, event.Hook, interp.Options) (*interp.RunInfo, error)

// goldenStreams is the fixture corpus: the equivalence suite's special-case
// streams, a large synthetic stream, a deterministic 4-thread target stream,
// and the captured access streams of the full workload suite. The workload
// streams are produced by exec, so the same fixture file pins both the
// tree-walking interpreter and the bytecode VM: any producer divergence
// surfaces as a digest mismatch.
func goldenStreams(t testing.TB, exec runFunc) []equivStream {
	streams := equivSuite()
	streams = append(streams,
		equivStream{"synth", prog.NewMeta(), synthStream(1<<16, 512, 7)},
		equivStream{"mt-4threads", prog.NewMeta(), mtThreadStream(4, 20000)},
	)
	for _, w := range workloads.All() {
		p := w.Build(workloads.Config{Scale: goldenWorkloadScale, Threads: 4})
		var c goldenCap
		if _, err := exec(p, &c, interp.Options{}); err != nil {
			t.Fatalf("capture %s: %v", w.Name, err)
		}
		streams = append(streams, equivStream{"wl-" + w.Name, p.Meta, c.evs})
	}
	return streams
}

// digestResult canonicalizes a typed profile into a hash. withChunks adds the
// deterministic producer counters (chunk/dup accounting). Timing-dependent
// fields (QueueBytes, recycle counts) are excluded on purpose.
func digestResult(res *Result, withChunks bool) string {
	h := sha256.New()
	type kv struct {
		k  dep.Key
		st dep.Stats
	}
	var deps []kv
	res.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		deps = append(deps, kv{k, st})
		return true
	})
	sort.Slice(deps, func(i, j int) bool {
		a, b := deps[i].k, deps[j].k
		switch {
		case a.Type != b.Type:
			return a.Type < b.Type
		case a.Src != b.Src:
			return a.Src < b.Src
		case a.Sink != b.Sink:
			return a.Sink < b.Sink
		case a.SrcThread != b.SrcThread:
			return a.SrcThread < b.SrcThread
		case a.SinkThread != b.SinkThread:
			return a.SinkThread < b.SinkThread
		default:
			return a.Var < b.Var
		}
	})
	for _, d := range deps {
		fmt.Fprintf(h, "dep %+v %+v\n", d.k, d.st)
	}
	var loops []prog.LoopID
	for id := range res.Loops {
		loops = append(loops, id)
	}
	sort.Slice(loops, func(i, j int) bool { return loops[i] < loops[j] })
	for _, id := range loops {
		fmt.Fprintf(h, "loop %d %+v\n", id, *res.Loops[id])
	}
	fmt.Fprintf(h, "accesses %d\n", res.Stats.Accesses)
	if withChunks {
		fmt.Fprintf(h, "chunks %d control %d dup %d\n",
			res.Stats.Chunks, res.Stats.ControlChunks, res.Stats.DupCollapsed)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenModes enumerates every pipeline composition the fixtures pin:
// serial, 8-worker lock-free, the lock-based ablation, a non-power-of-two
// worker count (modulo owner path), and MT with 4 workers. withChunks is
// digestResult's.
func goldenModes() []struct {
	name       string
	cfg        Config
	withChunks bool
} {
	return []struct {
		name       string
		cfg        Config
		withChunks bool
	}{
		{"serial", Config{}, false},
		{"par8", Config{Mode: ModeParallel, Workers: 8}, true},
		{"par8-lock", Config{Mode: ModeParallel, Workers: 8, LockBased: true}, true},
		{"par3", Config{Mode: ModeParallel, Workers: 3, QueueCap: 8}, true},
		{"mt4", Config{Mode: ModeMT, Workers: 4}, false},
	}
}

// computeGoldens digests every (stream, mode) pair with workload streams
// produced by exec.
func computeGoldens(t *testing.T, exec runFunc) map[string]string {
	streams := goldenStreams(t, exec)
	modes := goldenModes()
	got := make(map[string]string)
	for _, s := range streams {
		for _, m := range modes {
			cfg := m.cfg
			cfg.Backend, cfg.Meta = "perfect", s.meta
			got[s.name+"/"+m.name] = digestResult(feed(mustNew(t, cfg), s.evs), m.withChunks)
		}
	}
	return got
}

// compareGoldens checks a digest map against the committed fixture file.
func compareGoldens(t *testing.T, got map[string]string) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing goldens (%v); regenerate with -update-goldens on a known-good build", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: fixture present but mode/stream no longer produced", key)
		} else if g != w {
			t.Errorf("%s: profile digest drifted\n want %s\n got  %s", key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: produced but missing from goldens; regenerate with -update-goldens", key)
		}
	}
}

func TestGoldenProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite replays the full workload corpus")
	}
	got := computeGoldens(t, interp.Run)

	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden digests to %s", len(got), goldenPath)
		return
	}

	compareGoldens(t, got)
}

// TestGoldenProfilesVM re-runs the full fixture comparison with the bytecode
// VM as the event producer. The fixtures were captured from the tree-walking
// interpreter, so a pass here proves every workload's access stream — and
// therefore every one of the 130 pinned profiles — is byte-identical under
// the compiled producer.
func TestGoldenProfilesVM(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite replays the full workload corpus")
	}
	if *updateGoldens {
		t.Skip("goldens are always regenerated from the reference interpreter")
	}
	compareGoldens(t, computeGoldens(t, vm.Run))
}
