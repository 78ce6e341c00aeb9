package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	"ddprof"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// TestRetiredDDT1Refused: a DDT1 stream (the committed fixture, written by the
// last version that had the format) is refused by name wherever a trace can
// arrive — never as "bad magic", never decoded.
func TestRetiredDDT1Refused(t *testing.T) {
	ddt1, err := os.ReadFile("../trace/testdata/retired.ddt1")
	if err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() error{
		"NewReader": func() error { _, err := trace.NewReader(bytes.NewReader(ddt1)); return err },
		"ProfileTrace": func() error {
			_, err := ddprof.ProfileTrace(bytes.NewReader(ddt1), ddprof.Config{Backend: "perfect"})
			return err
		},
	} {
		if err := open(); !errors.Is(err, trace.ErrDDT1) {
			t.Errorf("%s: %v, want trace.ErrDDT1", name, err)
		}
	}

	if msg := sessionRefusal(t, ddt1); !strings.Contains(msg, trace.ErrDDT1.Error()) {
		t.Errorf("daemon session: %q; want the error response to carry %q", msg, trace.ErrDDT1)
	}
}

// sessionRefusal sends stream, framed, to a fresh daemon's session and
// returns the error response it must end with.
func sessionRefusal(t *testing.T, stream []byte) string {
	t.Helper()
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	conn, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var req bytes.Buffer
	if err := writeHandshake(&req, clientHandshake(testProgram("refused", 4), ClientOptions{})); err != nil {
		t.Fatal(err)
	}
	fw := trace.NewFrameWriter(&req)
	fw.Write(stream)
	fw.Close()
	if _, err := conn.Write(req.Bytes()); err != nil {
		t.Fatal(err)
	}
	status, msg, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if status != statusErr {
		t.Fatalf("daemon session: status %d, %q; want an error response", status, msg)
	}
	return string(msg)
}

// TestRetiredControlRecordRefused: a DDT2 stream carrying the retired control
// record (type 5, here a Flush behind a write) gets the decoder's refusal by
// name wherever it arrives: from a daemon session and from ProfileTrace, with
// NextBatch's text.
func TestRetiredControlRecordRefused(t *testing.T) {
	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	stream := append(buf.Bytes(), 5, byte(event.Flush), 0, 0, 0, 0, 0, 0, 0, 0)
	const want = "trace: event 1: record type 5 is the retired control record: a stream carries accesses only"

	tr, err := trace.NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	for c := event.NewChunk(); err == nil; c.Reset() {
		_, err = tr.NextBatch(c)
	}
	if err.Error() != want {
		t.Fatalf("NextBatch: %v, want %q", err, want)
	}
	if _, err := ddprof.ProfileTrace(bytes.NewReader(stream), ddprof.Config{Backend: "perfect"}); err == nil || err.Error() != want {
		t.Errorf("ProfileTrace: %v, want %q", err, want)
	}
	if msg := sessionRefusal(t, stream); !strings.Contains(msg, want) {
		t.Errorf("daemon session: %q, want the error response to carry %q", msg, want)
	}
}

// TestSiteDefinesAgree streams ddbench's remote-session programs and checks
// the define-record counts: the client's (RemoteResult) and the daemon's
// (pipeline_trace_site_*_total) are the same pair, and the table is doing its
// job — every distinct site defined, and fewer than one define in two forced
// by two sites hashing to one slot.
func TestSiteDefinesAgree(t *testing.T) {
	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("pipeline")
	srv := New(Config{WorkerBudget: 1, WorkersPerSession: 1, Registry: reg})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	for _, name := range []string{"MG", "BT", "kmeans"} {
		wl, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		sites := make(map[event.Access]bool)
		hook := event.HookFunc(func(a event.Access) {
			if a.Kind <= event.Remove {
				sites[event.Access{Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread, Kind: a.Kind, Flags: a.Flags}] = true
			}
		})
		if _, err := vm.Run(wl.Build(workloads.Config{}), hook, interp.Options{}); err != nil {
			t.Fatal(err)
		}

		d0, rd0 := pipe.TraceSiteDefines.Load(), pipe.TraceSiteRedefines.Load()
		conn, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		rr, err := ProfileRemote(conn, wl.Build(workloads.Config{}), ClientOptions{Workers: 1})
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		d, rd := pipe.TraceSiteDefines.Load()-d0, pipe.TraceSiteRedefines.Load()-rd0
		if d != rr.SiteDefines || rd != rr.SiteRedefines {
			t.Errorf("%s: the daemon counted %d defines, %d redefines; the client %d, %d", name, d, rd, rr.SiteDefines, rr.SiteRedefines)
		}
		if n := uint64(len(sites)); d < n || d >= 2*n {
			t.Errorf("%s: %d defines for %d distinct sites over %d events (%d redefines)", name, d, n, rr.Events, rd)
		}
		t.Logf("%s: %d events, %d sites, %d defines, %d redefines", name, rr.Events, len(sites), d, rd)
	}
}
