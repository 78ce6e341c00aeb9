package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/stats"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// TestHookForSpawnProof: the bare, unlocked trace.Writer goes only to programs
// that cannot spawn. The proof is over every function of the program — a
// spawn behind a call (or in a function nothing calls) still counts — and
// does not look at ClientOptions.
func TestHookForSpawnProof(t *testing.T) {
	spawnIn := func(b *minilang.Block) {
		b.Spawn(2, func(tb *minilang.Block) { tb.Decl("x", minilang.Tid()) })
	}
	cases := []struct {
		name   string
		build  func(p *minilang.Program)
		locked bool
	}{
		{"no spawn", func(p *minilang.Program) {
			p.MainFunc(func(b *minilang.Block) { b.Decl("x", minilang.Ci(1)) })
		}, false},
		{"spawn in main", func(p *minilang.Program) {
			p.MainFunc(spawnIn)
		}, true},
		{"spawn inside a called function", func(p *minilang.Program) {
			p.Func("worker", nil, spawnIn)
			p.MainFunc(func(b *minilang.Block) { b.Call("worker") })
		}, true},
		{"spawn nested in a loop of an uncalled function", func(p *minilang.Program) {
			p.Func("dead", nil, func(b *minilang.Block) {
				b.For("i", minilang.Ci(0), minilang.Ci(2), minilang.Ci(1), minilang.LoopOpt{Name: "l"}, spawnIn)
			})
			p.MainFunc(func(b *minilang.Block) { b.Decl("x", minilang.Ci(1)) })
		}, true},
	}
	for _, tc := range cases {
		p := minilang.New(tc.name)
		tc.build(p)
		if locked := !spawnFree(p); locked != tc.locked {
			t.Errorf("%s: locked hook = %v, want %v", tc.name, locked, tc.locked)
		}
	}
	// The sequential builds ddbench streams take the unlocked hook; the
	// threaded builds the locked one.
	for _, wl := range workloads.All() {
		if !spawnFree(wl.Build(workloads.Config{})) {
			t.Errorf("%s: sequential build got the locked hook", wl.Name)
		}
		if wl.BuildParallel != nil && spawnFree(wl.BuildParallel(workloads.Config{})) {
			t.Errorf("%s: threaded build got the unlocked hook", wl.Name)
		}
	}
}

// TestThreadedTargetRemote streams a threaded target (Starbench rgbyuv, four
// target threads all calling the recording hook) through ProfileRemote. Under
// -race this is the locked side of the hook decision; the profile must be
// the in-process ModeMT profiler's. rgbyuv's dependence keys do not depend on
// the thread schedule, so the comparison is exact on keys.
func TestThreadedTargetRemote(t *testing.T) {
	wl, _ := workloads.ByName("rgbyuv")
	p := wl.BuildParallel(workloads.Config{Scale: 0.25})

	prof, err := core.New(core.Config{Mode: core.ModeMT, Workers: 2, Backend: "perfect", RaceCheck: true, Meta: p.Meta})
	if err != nil {
		t.Fatal(err)
	}
	info, err := vm.Run(p, prof, interp.Options{Timestamps: true})
	local := prof.Flush()
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rr, err := ProfileRemote(conn, p, ClientOptions{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Events < info.Accesses {
		t.Errorf("streamed %d events, the local run made %d accesses", rr.Events, info.Accesses)
	}
	if r := stats.Compare(local.Deps, rr.Deps); r.FP != 0 || r.FN != 0 || r.Measured == 0 {
		t.Errorf("remote profile differs from local ModeMT: %d deps, %d not in local, %d missing", r.Measured, r.FP, r.FN)
	}
}

// TestFrameBytesBounds drives whole sessions at the two ends of
// ClientOptions.FrameBytes: below the Writer's floor (every record its own
// frame, more or less) and at the default daemon's 1MiB frame cap, which a
// record-aligned slab never exceeds. Both must profile like the default.
func TestFrameBytesBounds(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	p := testProgram("frames", 20000) // ~1.8MB of trace: two cap-sized frames
	want := localProfileBytes(t, testProgram("frames", 20000))
	for _, fb := range []int{1, 0, trace.DefaultMaxFrame} {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ProfileRemote(conn, p, ClientOptions{Backend: "perfect", FrameBytes: fb})
		conn.Close()
		if err != nil {
			t.Fatalf("FrameBytes %d: %v", fb, err)
		}
		if got := remoteProfileBytes(t, rr, p); !bytes.Equal(got, want) {
			t.Errorf("FrameBytes %d: remote profile differs from in-process profile", fb)
		}
	}
}

// TestVerdictIsLast: when ProfileRemote returns, the daemon has nothing left
// to do for the session — it is out of the session table and the /sessions
// gauge, and its completion is counted.
func TestVerdictIsLast(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	p := testProgram("verdict", 60)
	for i := 1; i <= 100; i++ {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ProfileRemote(conn, p, ClientOptions{})
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := srv.ActiveSessions(); n != 0 {
			t.Fatalf("session %d: %d sessions active after the response", i, n)
		}
		if n := reg.Gauge("server_sessions_active").Load(); n != 0 {
			t.Fatalf("session %d: server_sessions_active = %d after the response", i, n)
		}
		if n := reg.Counter("server_sessions_completed_total").Load(); n != uint64(i) {
			t.Fatalf("session %d: completed counter = %d", i, n)
		}
		if got := fmt.Sprint(srv.Sessions()); got != "[]" {
			t.Fatalf("session %d: still listed: %s", i, got)
		}
	}
}
