package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"ddprof/internal/telemetry"
)

// faultConn is the daemon's end of a net.Pipe with faults injected into its
// reads: at most one byte per Read, a pause after each Read returns (so a
// stop lands between reads, not in one), and a connection reset once
// resetAfter bytes have been read.
type faultConn struct {
	net.Conn
	oneByte    bool
	lag        time.Duration
	resetAfter int // 0: never
	read       int // reads come from one goroutine at a time
}

var errReset = errors.New("connection reset by peer")

func (f *faultConn) Read(p []byte) (int, error) {
	if f.resetAfter > 0 {
		if f.read >= f.resetAfter {
			return 0, errReset
		}
		p = p[:min(len(p), f.resetAfter-f.read)]
	}
	if f.oneByte && len(p) > 1 {
		p = p[:1]
	}
	n, err := f.Conn.Read(p)
	f.read += n
	time.Sleep(f.lag)
	return n, err
}

// TestSessionFaults drives whole daemon sessions over a fault-injecting
// connection. A row with its own stall timeout is a client that goes silent
// at one protocol state: the idle deadline must evict it, or, for a client
// that never reads its verdict, end the write. Every other row must end well
// inside IdleTimeout — a stopped session's decoder is never left waiting out
// a re-armed read deadline. No row leaves a session, a connection or a
// goroutine behind.
func TestSessionFaults(t *testing.T) {
	p := testProgram("faults", 200)
	var hs, stream bytes.Buffer
	writeHandshake(&hs, clientHandshake(p, ClientOptions{Backend: "perfect"}))
	// Below the Writer's floor: a frame every record or so.
	if _, err := streamTrace(&stream, p, ClientOptions{FrameBytes: 1}); err != nil {
		t.Fatal(err)
	}
	good := append(bytes.Clone(hs.Bytes()), stream.Bytes()...)
	// A Flush control record in its own frame, which the session rejects,
	// then a frame header the client never finishes.
	control := append(bytes.Clone(hs.Bytes()), 14, 'D', 'D', 'T', '2', 5, 5, 0, 0, 0, 0, 0, 0, 0, 0)
	control = append(control, bytes.Repeat([]byte{0x80}, 9)...)

	const idle = 10 * time.Second
	for _, tc := range []struct {
		name       string
		wire       []byte // what the client sends; then it stalls
		oneByte    bool
		lag        time.Duration
		resetAfter int
		shutdown   bool          // Shutdown with a short drain window mid-stream
		deaf       bool          // the client never reads the verdict
		stall      time.Duration // the row's IdleTimeout, which must evict it
		wantOK     bool
	}{
		{name: "one-byte-reads", wire: good, oneByte: true, wantOK: true},
		{name: "reset-mid-frame", wire: good, resetAfter: hs.Len() + 5},
		{name: "stall-after-rejected-control", wire: control, oneByte: true, lag: 2 * time.Millisecond},
		{name: "shutdown-mid-stream", wire: good[:hs.Len()+stream.Len()/2], shutdown: true},
		// Magic, version and flags byte, then silence.
		{name: "stall-mid-handshake", wire: hs.Bytes()[:len(protoMagic)+2], stall: 100 * time.Millisecond},
		// The first frame's header and a few bytes of its (≥ 107-byte) payload.
		{name: "stall-mid-payload", wire: good[:hs.Len()+8], stall: 100 * time.Millisecond},
		// A whole valid stream, then the client stops reading: net.Pipe
		// buffers nothing, so the DDP1 verdict is larger than the socket
		// buffer and its write blocks until the idle deadline.
		{name: "never-reads-verdict", wire: good, deaf: true, stall: 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			timeout := idle
			if tc.stall > 0 {
				timeout = tc.stall
			}
			srv := New(Config{Registry: telemetry.NewRegistry(), IdleTimeout: timeout})
			base := runtime.NumGoroutine()
			client, server := net.Pipe()
			defer client.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				srv.handleConn(&faultConn{Conn: server, oneByte: tc.oneByte, lag: tc.lag, resetAfter: tc.resetAfter})
			}()
			go client.Write(tc.wire) // returns once read, or when the pipe closes
			start := time.Now()
			if tc.shutdown {
				waitFor(t, func() bool {
					ss := srv.Sessions()
					return len(ss) == 1 && ss[0].Events > 0
				})
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				start = time.Now()
				if err := srv.Shutdown(ctx); err == nil {
					t.Fatal("Shutdown drained a stalled session")
				}
			} else if tc.deaf {
				// The session leaves the table before its verdict is written,
				// and Shutdown waits out only that write.
				waitFor(t, func() bool { return srv.cCompleted.Load() == 1 && srv.ActiveSessions() == 0 })
				const margin = 2 * time.Second
				ctx, cancel := context.WithTimeout(context.Background(), timeout+margin)
				defer cancel()
				if err := srv.Shutdown(ctx); err != nil {
					t.Fatalf("Shutdown with an unread verdict: %v after %v", err, time.Since(start))
				}
			} else {
				client.SetReadDeadline(time.Now().Add(idle / 2))
				status, payload, err := readResponse(bufio.NewReader(client))
				if err != nil {
					t.Fatalf("no verdict: %v", err)
				}
				if ok := status == statusOK; ok != tc.wantOK {
					t.Fatalf("verdict ok=%v (%s), want ok=%v", ok, payload, tc.wantOK)
				}
				if tc.stall > 0 && !strings.Contains(string(payload), "i/o timeout") {
					t.Fatalf("verdict %q, want an eviction by the idle deadline", payload)
				}
			}
			select {
			case <-done:
			case <-time.After(idle / 2):
				t.Fatal("session did not end")
			}
			if d := time.Since(start); tc.stall == 0 && d > idle/5 {
				t.Fatalf("session took %v to end; IdleTimeout is %v", d, idle)
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("%d sessions active after the session ended", n)
			}
			srv.mu.Lock()
			conns := len(srv.conns)
			srv.mu.Unlock()
			if conns != 0 {
				t.Fatalf("%d connections held after the session ended", conns)
			}
			client.Close()
			waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}
