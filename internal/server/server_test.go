package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/telemetry"
)

// testProgram builds a target with carried and independent dependences; n
// scales the work so different clients stream different traces.
func testProgram(name string, n int) *minilang.Program {
	p := minilang.New(name)
	p.MainFunc(func(b *minilang.Block) {
		b.Decl("n", minilang.Ci(n))
		b.DeclArr("a", minilang.V("n"))
		b.Decl("sum", minilang.Ci(0))
		b.For("i", minilang.Ci(0), minilang.V("n"), minilang.Ci(1),
			minilang.LoopOpt{Name: "fill"}, func(l *minilang.Block) {
				l.Set("a", minilang.V("i"), minilang.Mul(minilang.V("i"), minilang.Ci(3)))
			})
		b.For("i", minilang.Ci(1), minilang.V("n"), minilang.Ci(1),
			minilang.LoopOpt{Name: "scan"}, func(l *minilang.Block) {
				l.Set("a", minilang.V("i"),
					minilang.Add(minilang.Idx("a", minilang.Sub(minilang.V("i"), minilang.Ci(1))),
						minilang.Idx("a", minilang.V("i"))))
				l.Reduce("sum", minilang.OpAdd, minilang.Idx("a", minilang.V("i")))
			})
		b.Free("a")
	})
	return p
}

// localProfileBytes profiles p in-process with an exact store and encodes the
// dependence set the way the daemon does (names-only table, no loop records),
// so the result is byte-comparable with a remote session's response.
func localProfileBytes(t *testing.T, p *minilang.Program) []byte {
	t.Helper()
	prof, err := core.New(core.Config{
		Backend: "perfect",
		Meta:    p.Meta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(p, prof, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	res := prof.Flush()
	tab := loc.NewTable()
	for i := 0; i < p.Tab.NumVars(); i++ {
		tab.Var(p.Tab.VarName(loc.VarID(i)))
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf, res.Deps, tab, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func remoteProfileBytes(t *testing.T, rr *RemoteResult, p *minilang.Program) []byte {
	t.Helper()
	tab := loc.NewTable()
	for i := 0; i < p.Tab.NumVars(); i++ {
		tab.Var(p.Tab.VarName(loc.VarID(i)))
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf, rr.Deps, tab, nil); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// listenTCP returns a loopback listener or skips the test when the sandbox
// forbids sockets.
func listenTCP(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("sockets unavailable: %v", err)
	}
	return ln
}

// TestE2EConcurrentSessions is the acceptance scenario: four healthy clients
// split over TCP and a Unix socket, one corrupt-stream client and one
// mid-stream staller, all concurrent. The daemon must evict the two
// misbehaving sessions, the healthy ones must get dependence sets
// byte-identical to in-process profiling, and the metrics endpoint must show
// nonzero queue depth and event rate.
func TestE2EConcurrentSessions(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{
		WorkerBudget:      8,
		WorkersPerSession: 2,
		IdleTimeout:       400 * time.Millisecond,
		Registry:          reg,
	})
	tcpLn := listenTCP(t)
	go srv.Serve(tcpLn)
	tcpAddr := tcpLn.Addr().String()

	sockPath := filepath.Join(t.TempDir(), "dd.sock")
	unixLn, err := net.Listen("unix", sockPath)
	unixAddr := ""
	if err != nil {
		t.Logf("unix sockets unavailable (%v); running all clients over TCP", err)
	} else {
		go srv.Serve(unixLn)
		unixAddr = "unix:" + sockPath
	}

	addrFor := func(i int) string {
		if unixAddr != "" && i%2 == 1 {
			return unixAddr
		}
		return tcpAddr
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)

	// Four healthy clients, distinct programs.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := testProgram(fmt.Sprintf("client%d", i), 200+50*i)
			conn, err := Dial(addrFor(i))
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", i, err)
				return
			}
			defer conn.Close()
			rr, err := ProfileRemote(conn, p, ClientOptions{Workers: 2, Backend: "perfect"})
			if err != nil {
				errs <- fmt.Errorf("client %d: %w", i, err)
				return
			}
			want := localProfileBytes(t, testProgram(fmt.Sprintf("client%d", i), 200+50*i))
			got := remoteProfileBytes(t, rr, p)
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("client %d: remote profile differs from in-process profile (%d vs %d bytes)", i, len(got), len(want))
			}
		}(i)
	}

	// One corrupt-stream client: valid handshake, then garbage frames.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := Dial(tcpAddr)
		if err != nil {
			errs <- fmt.Errorf("corrupt client dial: %w", err)
			return
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		writeHandshake(bw, &handshake{})
		bw.Write([]byte{8, 'X', 'X', 'X', 'X', 0xff, 0xff, 0xff, 0xff, 0}) // one bogus frame + terminator
		bw.Flush()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		status, payload, err := readResponse(bufio.NewReader(conn))
		if err != nil {
			errs <- fmt.Errorf("corrupt client: reading verdict: %w", err)
			return
		}
		if status != statusErr {
			errs <- fmt.Errorf("corrupt stream got status %d, want error", status)
			return
		}
		if !strings.Contains(string(payload), "trace stream") {
			errs <- fmt.Errorf("corrupt stream error %q does not name the trace stream", payload)
		}
	}()

	// One staller: valid handshake, then silence until the idle deadline.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := Dial(tcpAddr)
		if err != nil {
			errs <- fmt.Errorf("staller dial: %w", err)
			return
		}
		defer conn.Close()
		bw := bufio.NewWriter(conn)
		writeHandshake(bw, &handshake{})
		bw.Flush()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		status, _, err := readResponse(bufio.NewReader(conn))
		if err == nil && status != statusErr {
			errs <- fmt.Errorf("staller got status %d, want eviction", status)
		}
		// err != nil (connection closed without a response) also counts as
		// eviction; the session-counter check below is authoritative.
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := reg.Counter("server_sessions_completed_total").Load(); got != 4 {
		t.Errorf("completed sessions = %d, want 4", got)
	}
	if got := reg.Counter("server_sessions_evicted_total").Load(); got != 2 {
		t.Errorf("evicted sessions = %d, want 2", got)
	}
	if srv.ActiveSessions() != 0 {
		t.Errorf("%d sessions still active after all clients finished", srv.ActiveSessions())
	}

	// Metrics endpoint: live pipeline counters must be visible.
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	assertMetricPositive(t, body, "pipeline_events_total")
	assertMetricPositive(t, body, "pipeline_events_per_sec")
	assertMetricPositive(t, body, "pipeline_queue_depth_max")
	assertMetricPositive(t, body, "server_bytes_in_total")
	assertMetricPositive(t, body, "server_bytes_out_total")

	rec = httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/sessions", nil))
	var infos []SessionInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &infos); err != nil {
		t.Errorf("/sessions is not JSON: %v", err)
	}
	if len(infos) != 0 {
		t.Errorf("/sessions lists %d sessions after drain, want 0", len(infos))
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// assertMetricPositive checks that the exposition contains `name value` with
// value > 0.
func assertMetricPositive(t *testing.T, body, name string) {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			var v float64
			fmt.Sscanf(fields[1], "%g", &v)
			if v <= 0 {
				t.Errorf("metric %s = %s, want > 0", name, fields[1])
			}
			return
		}
	}
	t.Errorf("metric %s missing from exposition:\n%s", name, body)
}

// TestMTRemoteSession profiles a multi-threaded target remotely: the trace is
// recorded through a SyncWriter and the daemon runs with race checking.
func TestMTRemoteSession(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	p := minilang.New("mt-remote")
	p.MainFunc(func(b *minilang.Block) {
		b.Decl("sum", minilang.Ci(0))
		b.Spawn(4, func(tb *minilang.Block) {
			tb.For("i", minilang.Ci(0), minilang.Ci(50), minilang.Ci(1),
				minilang.LoopOpt{Name: "acc"}, func(l *minilang.Block) {
					l.Lock("m", func(cb *minilang.Block) {
						cb.Reduce("sum", minilang.OpAdd, minilang.V("i"))
					})
				})
		})
	})
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rr, err := ProfileRemote(conn, p, ClientOptions{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Deps.Unique() == 0 {
		t.Fatal("no dependences from MT session")
	}
	if rr.Events == 0 {
		t.Fatal("no events streamed")
	}
}

// TestSessionLimit: a connection beyond MaxSessions is refused with an
// explanatory error response.
func TestSessionLimit(t *testing.T) {
	srv := New(Config{MaxSessions: 1, IdleTimeout: 2 * time.Second, Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	// Occupy the only slot with an idle connection.
	hold, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	waitFor(t, func() bool { return srv.ActiveSessions() == 1 })

	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = ProfileRemote(conn, testProgram("refused", 50), ClientOptions{})
	if err == nil || !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("over-limit session: err = %v, want session-limit refusal", err)
	}
}

// TestShutdownDrain: Shutdown lets an in-flight session finish and refuses
// new connects.
func TestShutdownDrain(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	addr := ln.Addr().String()

	// Start a session and park it mid-handshake so Shutdown finds it live.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	waitFor(t, func() bool { return srv.ActiveSessions() == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// New connects must fail once draining: the listener is closed.
	waitFor(t, func() bool {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return true
		}
		c.Close()
		return false
	})

	// The in-flight session still completes.
	p := testProgram("drain", 100)
	if err := writeHandshake(bw, clientHandshake(p, ClientOptions{Backend: "perfect"})); err != nil {
		t.Fatal(err)
	}
	if _, err := streamTrace(bw, p, ClientOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	status, payload, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("draining session response: %v", err)
	}
	if status != statusOK {
		t.Fatalf("draining session got error: %s", payload)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandshakeRoundTrip covers the preamble codec, including the loop
// metadata tables.
func TestHandshakeRoundTrip(t *testing.T) {
	p := mtProgram()
	in := clientHandshake(p, ClientOptions{Workers: 3, Backend: "perfect"})
	if in.Flags&flagRaceCheck == 0 || clientHandshake(testProgram("codec", 64), ClientOptions{}).Flags&flagRaceCheck != 0 {
		t.Fatal("race checking must be requested for exactly the targets that spawn")
	}
	var buf bytes.Buffer
	if err := writeHandshake(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readHandshake(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out.Flags&flagRaceCheck != in.Flags&flagRaceCheck || out.Workers != in.Workers {
		t.Fatalf("flags/workers: got %#x/%d, want %#x/%d", out.Flags, out.Workers, in.Flags, in.Workers)
	}
	if out.Backend != in.Backend {
		t.Fatalf("backend spec: got %q, want %q", out.Backend, in.Backend)
	}
	if len(out.VarNames) != len(in.VarNames) {
		t.Fatalf("var names: %d vs %d", len(out.VarNames), len(in.VarNames))
	}
	for i := range in.VarNames {
		if out.VarNames[i] != in.VarNames[i] {
			t.Fatalf("var %d: %q vs %q", i, out.VarNames[i], in.VarNames[i])
		}
	}
	if out.Meta == nil {
		t.Fatal("meta lost")
	}
	if got, want := len(out.Meta.Loops()), len(p.Meta.Loops()); got != want {
		t.Fatalf("loops: %d vs %d", got, want)
	}
	if got, want := out.Meta.NumCtxs(), p.Meta.NumCtxs(); got != want {
		t.Fatalf("contexts: %d vs %d", got, want)
	}
	for id := 1; id < out.Meta.NumCtxs(); id++ {
		a, b := out.Meta.Stack(uint32(id)), p.Meta.Stack(uint32(id))
		if len(a) != len(b) {
			t.Fatalf("ctx %d stack: %v vs %v", id, a, b)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("ctx %d stack: %v vs %v", id, a, b)
			}
		}
	}
}

func TestHandshakeRejects(t *testing.T) {
	cases := map[string]struct {
		data []byte
		want string // in the error text
	}{
		"empty":              {nil, ""},
		"bad magic":          {[]byte("NOPE\x01"), "magic"},
		"bad version":        {[]byte("DDRP\x09"), "version"},
		"bad flags":          {[]byte("DDRP\x01\xff"), "unknown handshake flags 0xff"},
		"retired flag":       {[]byte("DDRP\x01\x02\x00\x00\x00"), "unknown handshake flags 0x2"}, // bit 1 once meant an exact store
		"retired watch flag": {[]byte("DDRP\x01\x08\x00\x00"), "flag bit 3 (watch) is retired"},   // bit 3 once subscribed to a live session
		"cut mid-vars":       {[]byte{'D', 'D', 'R', 'P', 1, 0, 0, 5}, ""},
	}
	for name, c := range cases {
		_, err := readHandshake(bufio.NewReader(bytes.NewReader(c.data)))
		if err == nil {
			t.Errorf("%s: accepted", name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: refused with %q, want it to mention %q", name, err, c.want)
		}
	}
}
