package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
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
// connection. In every row the session must end well inside IdleTimeout — a
// stopped session's decoder is never left waiting out a re-armed read
// deadline — and leave no session and no goroutine behind.
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
		shutdown   bool // Shutdown with a short drain window mid-stream
		wantOK     bool
	}{
		{name: "one-byte-reads", wire: good, oneByte: true, wantOK: true},
		{name: "reset-mid-frame", wire: good, resetAfter: hs.Len() + 5},
		{name: "stall-after-rejected-control", wire: control, oneByte: true, lag: 2 * time.Millisecond},
		{name: "shutdown-mid-stream", wire: good[:hs.Len()+stream.Len()/2], shutdown: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Registry: telemetry.NewRegistry(), IdleTimeout: idle, SnapshotSamples: -1})
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
			} else {
				client.SetReadDeadline(time.Now().Add(idle / 2))
				status, payload, err := readResponse(bufio.NewReader(client))
				if err != nil {
					t.Fatalf("no verdict: %v", err)
				}
				if ok := status == statusOK; ok != tc.wantOK {
					t.Fatalf("verdict ok=%v (%s), want ok=%v", ok, payload, tc.wantOK)
				}
			}
			select {
			case <-done:
			case <-time.After(idle / 2):
				t.Fatal("session did not end")
			}
			if d := time.Since(start); d > idle/5 {
				t.Fatalf("session took %v to end; IdleTimeout is %v", d, idle)
			}
			if n := srv.ActiveSessions(); n != 0 {
				t.Fatalf("%d sessions active after the session ended", n)
			}
			client.Close()
			waitFor(t, func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}
