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
// the loop aggregates, and the access count — so any behavioral drift in the
// routing, rings, worker loop, or merge stage fails the comparison
// byte-for-byte. goldens.json stores the serial and MT digests; a §IV mode's
// profile must be its stream's serial one, so it stores none. What the
// pipelined modes add of their own — the duplicate reads collapsed on the way
// into the rings, which move with the ring geometry while the profile does
// not — is pinned in transport_counters.json. Streams are handed over through
// AccessBatch in per-thread batches (feedThreadBatches). For a sequential
// stream those are the executors' batches, so its counters are production's;
// a threaded target's executor batches also end at release operations, which
// a recorded stream does not show.
//
// Regenerate (only when an intentional change is made) with:
//
//	go test ./internal/core/ -run TestGoldenProfiles -update-goldens

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/goldens.json and transport_counters.json from the current build")

const (
	goldenPath   = "testdata/goldens.json"
	countersPath = "testdata/transport_counters.json"
)

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

// digestResult canonicalizes a typed profile into a hash. What describes the
// run, not the profile, is excluded: timing-dependent fields (QueueBytes) and
// the pipeline's counters (transportCounters).
func digestResult(res *Result) string {
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
	return fmt.Sprintf("%x", h.Sum(nil))
}

// transportCounters renders a pipelined mode's deterministic counter: the
// duplicate reads collapsed.
func transportCounters(res *Result) string {
	return fmt.Sprintf("dup %d", res.Stats.DupCollapsed)
}

// goldenModes enumerates every pipeline composition the fixtures pin:
// serial, 8-worker lock-free, the lock-based ablation, a non-power-of-two
// worker count (modulo owner path) over short rings, and MT with 4 workers.
// A §IV mode is held to its stream's serial digest; every pipelined mode pins
// its transport counters.
func goldenModes() []struct {
	name     string
	cfg      Config
	asSerial bool
} {
	return []struct {
		name     string
		cfg      Config
		asSerial bool
	}{
		{"serial", Config{}, false}, // first: the §IV modes compare against it
		{"par8", Config{Mode: ModeParallel, Workers: 8}, true},
		{"par8-lock", Config{Mode: ModeParallel, Workers: 8, LockBased: true}, true},
		{"par3", Config{Mode: ModeParallel, Workers: 3, QueueCap: 64}, true},
		{"mt4", Config{Mode: ModeMT, Workers: 4}, false},
	}
}

// computeGoldens runs every (stream, mode) pair with workload streams
// produced by exec: the profile digests of the stored modes, the transport
// counters of the pipelined ones, and the §IV profiles held to serial's.
func computeGoldens(t *testing.T, exec runFunc) (digests, counters map[string]string) {
	digests, counters = make(map[string]string), make(map[string]string)
	for _, s := range goldenStreams(t, exec) {
		for _, m := range goldenModes() {
			cfg := m.cfg
			cfg.Backend, cfg.Meta = "perfect", s.meta
			p := mustNew(t, cfg)
			feedThreadBatches(p, s.evs)
			res := p.Flush()
			key, d := s.name+"/"+m.name, digestResult(res)
			if cfg.Mode != ModeSerial {
				counters[key] = transportCounters(res)
			}
			if !m.asSerial {
				digests[key] = d
				continue
			}
			if serial := digests[s.name+"/serial"]; d != serial {
				t.Errorf("%s: profile differs from the stream's serial profile\n serial %s\n got    %s", key, serial, d)
			}
		}
	}
	return digests, counters
}

// feedThreadBatches hands evs over one thread's run at a time: a batch ends
// where the stream changes threads, as a target thread's batch holds its own
// events only (AccessBatch cuts it into BatchSize segments).
func feedThreadBatches(p *Profiler, evs []event.Access) {
	for len(evs) > 0 {
		n := 1
		for n < len(evs) && evs[n].Thread == evs[0].Thread {
			n++
		}
		p.AccessBatch(evs[:n], nil)
		evs = evs[n:]
	}
}

// compareGoldens checks a fixture map against its committed file.
func compareGoldens(t *testing.T, path string, got map[string]string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (%v); regenerate with -update-goldens on a known-good build", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: %s: fixture present but mode/stream no longer produced", path, key)
		} else if g != w {
			t.Errorf("%s: %s drifted\n want %s\n got  %s", path, key, w, g)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: %s: produced but missing from the fixture; regenerate with -update-goldens", path, key)
		}
	}
}

// writeGoldens rewrites a fixture file from the current build.
func writeGoldens(t *testing.T, path string, got map[string]string) {
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d entries to %s", len(got), path)
}

func TestGoldenProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite replays the full workload corpus")
	}
	digests, counters := computeGoldens(t, interp.Run)

	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		writeGoldens(t, goldenPath, digests)
		writeGoldens(t, countersPath, counters)
		return
	}

	compareGoldens(t, goldenPath, digests)
	compareGoldens(t, countersPath, counters)
}

// TestGoldenProfilesVM re-runs the full fixture comparison with the bytecode
// VM as the event producer. The fixtures were captured from the tree-walking
// interpreter, so a pass here proves every workload's access stream — and
// therefore every pinned profile and counter — is byte-identical under the
// compiled producer.
func TestGoldenProfilesVM(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite replays the full workload corpus")
	}
	if *updateGoldens {
		t.Skip("goldens are always regenerated from the reference interpreter")
	}
	digests, counters := computeGoldens(t, vm.Run)
	compareGoldens(t, goldenPath, digests)
	compareGoldens(t, countersPath, counters)
}
