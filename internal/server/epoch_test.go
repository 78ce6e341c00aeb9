package server

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
)

// pacedConn sends each wire frame in one write after a pause, so a session
// receives its trace over time.
type pacedConn struct {
	net.Conn
	pause time.Duration
}

func (p *pacedConn) WriteBuffers(v *net.Buffers) (int64, error) {
	time.Sleep(p.pause)
	return v.WriteTo(p.Conn)
}

// TestEpochInterval: a session cuts interval epochs at batch boundaries of a
// paced stream when EpochInterval is set, and only its explicit marks and the
// final cut when it is 0. Either way the union of the watched deltas is the
// final profile, byte for byte.
func TestEpochInterval(t *testing.T) {
	meta, names, batches := obsTarget(8, 100)
	marks := len(batches) // the stream carries one EpochMark per batch
	for _, tc := range []struct {
		name     string
		interval time.Duration
	}{
		{"1ms", time.Millisecond},
		{"off", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(Config{Registry: telemetry.NewRegistry(), EpochInterval: tc.interval, SnapshotSamples: -1})
			ln := listenTCP(t)
			go srv.Serve(ln)
			defer srv.Shutdown(context.Background())
			addr := ln.Addr().String()

			watched := make(chan []trace.DeltaFrame, 1)
			go func() {
				var frames []trace.DeltaFrame
				if conn, err := Dial(addr); err == nil {
					Watch(conn, WatchOptions{Timeout: 10 * time.Second}, func(f trace.DeltaFrame) error {
						frames = append(frames, f)
						return nil
					})
					conn.Close()
				}
				watched <- frames
			}()
			waitFor(t, func() bool {
				srv.obsMu.Lock()
				defer srv.obsMu.Unlock()
				return len(srv.obsWaiters) == 1
			})

			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := writeHandshake(conn, &handshake{Backend: "perfect", VarNames: names, Meta: meta}); err != nil {
				t.Fatal(err)
			}
			// 256-byte frames, 2ms apart: every frame is a batch of its own.
			fw := trace.NewFrameWriter(&pacedConn{Conn: conn, pause: 2 * time.Millisecond})
			tw, _ := trace.NewWriterSize(fw, 256)
			for i, evs := range batches {
				for _, a := range evs {
					tw.Access(a)
				}
				tw.Access(event.Access{Addr: uint64(i + 1), Kind: event.EpochMark})
			}
			if err := tw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			status, profile, err := readResponse(bufio.NewReader(conn))
			if err != nil || status != statusOK {
				t.Fatalf("session: status %d, %v: %s", status, err, profile)
			}

			frames := <-watched
			if len(frames) == 0 || !frames[len(frames)-1].Final {
				t.Fatalf("%d frames, last not final", len(frames))
			}
			// Every cut advances the epoch by one and the final remainder takes
			// the number after the end-of-stream cut, so its epoch counts the
			// cuts: interval ones, explicit marks, and the end of stream.
			interval := int(frames[len(frames)-1].Epoch) - 1 - marks - 1
			t.Logf("%d interval cuts, %d frames", interval, len(frames))
			if tc.interval > 0 && interval < 2 {
				t.Fatalf("%d interval cuts over a paced stream at %v, want at least 2", interval, tc.interval)
			}
			if tc.interval == 0 && interval != 0 {
				t.Fatalf("%d interval cuts with EpochInterval 0, want only the %d marks and the final cut", interval, marks)
			}
			folded := dep.NewSet()
			for _, f := range frames {
				if len(f.Payload) == 0 {
					continue
				}
				if _, _, err := dep.DecodeMerge(bytes.NewReader(f.Payload), folded); err != nil {
					t.Fatalf("epoch %d frame: %v", f.Epoch, err)
				}
			}
			tab := loc.NewTable()
			for _, n := range names {
				tab.Var(n)
			}
			var got bytes.Buffer
			if err := dep.Encode(&got, folded, tab, nil); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), profile) {
				t.Fatal("the union of the deltas is not the final profile")
			}
		})
	}
}
