package server

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
	"ddprof/internal/vm"
)

// hotProgram builds a target with a small heavy-hitter working set — the
// reduction scalar and the low array cells — hammered inside a long loop,
// plus a cold strided sweep over a large array.
func hotProgram(n int) *minilang.Program {
	p := minilang.New("hot")
	p.MainFunc(func(b *minilang.Block) {
		b.Decl("n", minilang.Ci(n))
		b.DeclArr("big", minilang.V("n"))
		b.Decl("acc", minilang.Ci(0))
		b.For("i", minilang.Ci(0), minilang.V("n"), minilang.Ci(1),
			minilang.LoopOpt{Name: "sweep"}, func(l *minilang.Block) {
				l.Set("big", minilang.V("i"), minilang.V("i"))
				l.Reduce("acc", minilang.OpAdd, minilang.Idx("big", minilang.V("i")))
			})
		b.Free("big")
	})
	return p
}

// varID resolves a variable name in the program's table.
func varID(t *testing.T, p *minilang.Program, name string) loc.VarID {
	t.Helper()
	for i := 0; i < p.Tab.NumVars(); i++ {
		if p.Tab.VarName(loc.VarID(i)) == name {
			return loc.VarID(i)
		}
	}
	t.Fatalf("variable %q not in table", name)
	return 0
}

// TestRemoteBackendSession is the end-to-end acceptance check for the
// backend layer: a remote session selecting a sized store over the DDT2
// handshake must pass daemon admission, produce a profile whose heavy-hitter
// (reduction-variable) dependences exactly match the exact backend's, and
// keep the session's total store bytes under the daemon budget.
func TestRemoteBackendSession(t *testing.T) {
	const budget = 4 << 20
	reg := telemetry.NewRegistry()
	srv := New(Config{
		WorkersPerSession: 2,
		MaxStoreBytes:     budget,
		Registry:          reg,
	})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	p := hotProgram(3000)

	// Exact reference, profiled in-process.
	ref, err := core.New(core.Config{Backend: "perfect", Meta: p.Meta})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(p, ref, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	want := ref.Flush()

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rr, err := ProfileRemote(conn, hotProgram(3000), ClientOptions{
		Workers: 2,
		Backend: "signature:slots=4096",
	})
	if err != nil {
		t.Fatal(err)
	}

	// Every dependence on the heavy-hitter reduction variable must be
	// recovered with its exact instance count.
	acc := varID(t, p, "acc")
	checked := 0
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		if k.Var != acc {
			return true
		}
		checked++
		got, ok := rr.Deps.Lookup(k)
		if !ok {
			t.Errorf("heavy-hitter dependence %+v missing from the remote profile", k)
			return true
		}
		if got.Count != st.Count {
			t.Errorf("heavy-hitter %+v: count %d, want %d", k, got.Count, st.Count)
		}
		return true
	})
	if checked == 0 {
		t.Fatal("reference profile has no reduction-variable dependences")
	}

	// The daemon's flush-time store gauge stays within the admitted budget.
	if got := reg.Gauge("pipeline_store_bytes").Load(); got <= 0 || got > budget {
		t.Errorf("pipeline_store_bytes = %d, want (0, %d]", got, budget)
	}
}

// TestRemoteSigOccupancy: the signature's accuracy gauge reaches /metrics
// from a remote session. The target writes every other word of an array
// three times the slot count long, so the signature is smaller than its
// footprint and only half full; a serial and a two-worker session each
// publish pipeline_sig_occupancy_permille as ⌊1000 × Occupancy()⌋ of a local
// signature of the same slots fed the same stream.
func TestRemoteSigOccupancy(t *testing.T) {
	const slots = 4096
	strided := func() *minilang.Program {
		p := minilang.New("strided")
		p.MainFunc(func(b *minilang.Block) {
			b.DeclArr("a", minilang.Ci(3*slots))
			b.For("i", minilang.Ci(0), minilang.Ci(3*slots/2), minilang.Ci(1),
				minilang.LoopOpt{Name: "evens"}, func(l *minilang.Block) {
					l.Set("a", minilang.Mul(minilang.V("i"), minilang.Ci(2)), minilang.V("i"))
				})
		})
		return p
	}
	p := strided()
	g := sig.NewSignature(slots)
	eng := core.NewEngine(g, p.Meta, false)
	if _, err := vm.Run(p, event.HookFunc(eng.Process), interp.Options{}); err != nil {
		t.Fatal(err)
	}
	occ := g.Occupancy()
	if occ <= 0.4 || occ >= 0.6 {
		t.Fatalf("local occupancy %v: want a signature about half full", occ)
	}
	want := int64(1000 * occ)
	t.Logf("local %d-slot signature: Occupancy %v", slots, occ)

	for _, workers := range []int{1, 2} {
		reg := telemetry.NewRegistry()
		srv := New(Config{WorkersPerSession: workers, Registry: reg})
		ln := listenTCP(t)
		go srv.Serve(ln)
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ProfileRemote(conn, strided(), ClientOptions{Workers: workers, Backend: fmt.Sprintf("signature:slots=%d", slots)})
		conn.Close()
		srv.Shutdown(context.Background())
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if got := reg.Gauge("pipeline_sig_occupancy_permille").Load(); got != want {
			t.Errorf("W=%d: pipeline_sig_occupancy_permille = %d, want %d (local Occupancy %v)", workers, got, want, occ)
		}
	}
}

// TestBackendAdmission: the daemon refuses backends it cannot bound under
// MaxStoreBytes — unbounded stores outright, bounded ones that exceed the
// budget across the session's stores — and names the budget in the error.
func TestBackendAdmission(t *testing.T) {
	srv := New(Config{
		WorkersPerSession: 2,
		MaxStoreBytes:     1 << 20,
		Registry:          telemetry.NewRegistry(),
	})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	for _, tc := range []struct {
		backend string
		wantErr string
	}{
		{"perfect", "no memory bound"},
		{"signature:slots=16m", "store budget"},
		{"no-such-backend", "no-such-backend"},
		{"hybrid:slots=1m,exact=4096", `unknown store backend "hybrid" (registered: hashtab, perfect, shadow, signature)`},
	} {
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = ProfileRemote(conn, testProgram("refused", 50), ClientOptions{Backend: tc.backend})
		conn.Close()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("backend %q: err = %v, want mention of %q", tc.backend, err, tc.wantErr)
		}
	}

	// An explicitly sized signature fits under the same budget.
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := ProfileRemote(conn, testProgram("fits", 50), ClientOptions{Backend: "signature:slots=4k"}); err != nil {
		t.Errorf("sized signature refused under budget: %v", err)
	}
}

// TestAdmissionEqualsStoreBytes: what admission charges a session is what
// that session's stores report at flush (pipeline_store_bytes), to the byte —
// a race-checking session's signatures keep a stamp word behind each pair
// (sig.Stamps), any other the bare pair, and W workers' signatures hold one signature's slots between
// them — so a budget of exactly that figure admits it and one byte less
// refuses it, naming both numbers.
func TestAdmissionEqualsStoreBytes(t *testing.T) {
	pair := uint64(unsafe.Sizeof(sig.Pair{}))
	stamped := pair + uint64(unsafe.Sizeof(sig.Stamps(0)))
	sequential := func() *minilang.Program { return testProgram("seq", 50) }
	spawning := func() *minilang.Program {
		p := minilang.New("racing")
		p.MainFunc(func(b *minilang.Block) {
			b.Decl("sum", minilang.Ci(0))
			b.Spawn(2, func(tb *minilang.Block) { tb.Reduce("sum", minilang.OpAdd, minilang.Tid()) })
		})
		return p
	}
	// session runs one profiling session on a daemon with the given budget
	// and returns the store bytes its flush published.
	session := func(workers int, budget uint64, prog *minilang.Program, backend string) (int64, error) {
		reg := telemetry.NewRegistry()
		srv := New(Config{WorkersPerSession: workers, MaxStoreBytes: budget, Registry: reg})
		ln := listenTCP(t)
		go srv.Serve(ln)
		defer srv.Shutdown(context.Background())
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		_, err = ProfileRemote(conn, prog, ClientOptions{Workers: workers, Backend: backend})
		return reg.Gauge("pipeline_store_bytes").Load(), err
	}
	for _, workers := range []int{2, 4} {
		// The default is the session's 2^20 slots split W ways, and each
		// worker's signature holds a W-th of its split; an explicit slots= is
		// every worker's signature, of which each holds a W-th.
		for _, tc := range []struct {
			name    string
			prog    func() *minilang.Program
			backend string
			want    uint64
		}{
			{"sequential, default slots", sequential, "", (1 << 20) / uint64(workers) * pair},
			{"race check, default slots", spawning, "", (1 << 20) / uint64(workers) * stamped},
			{"sequential, slots=64k", sequential, "signature:slots=64k", (64 << 10) * pair},
			{"race check, slots=64k", spawning, "signature:slots=64k", (64 << 10) * stamped},
		} {
			name := fmt.Sprintf("W=%d, %s", workers, tc.name)
			got, err := session(workers, 0, tc.prog(), tc.backend)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if uint64(got) != tc.want {
				t.Errorf("%s: stores report %d bytes, want %d", name, got, tc.want)
			}
			if _, err := session(workers, tc.want, tc.prog(), tc.backend); err != nil {
				t.Errorf("%s: refused at a budget of exactly its %d bytes: %v", name, tc.want, err)
			}
			msg := fmt.Sprintf("needs %d bytes over %d stores; daemon store budget is %d bytes", tc.want, workers, tc.want-1)
			if _, err := session(workers, tc.want-1, tc.prog(), tc.backend); err == nil || !strings.Contains(err.Error(), msg) {
				t.Errorf("%s: one byte under budget: err = %v, want %q", name, err, msg)
			}
		}
	}

	// Between the two figures the same spec is admitted for a sequential
	// target and refused for one that needs the race check.
	between := (64 << 10) * (pair + stamped) / 2
	if _, err := session(2, between, sequential(), "signature:slots=64k"); err != nil {
		t.Errorf("sequential session refused at %d bytes: %v", between, err)
	}
	msg := fmt.Sprintf(`backend "signature:slots=64k" needs %d bytes over 2 stores; daemon store budget is %d bytes`,
		(64<<10)*stamped, between)
	if _, err := session(2, between, spawning(), "signature:slots=64k"); err == nil || !strings.Contains(err.Error(), msg) {
		t.Errorf("race-checking session at %d bytes: err = %v, want %q", between, err, msg)
	}
}
