package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"ddprof/internal/telemetry"
)

// FuzzHandshake: arbitrary preamble bytes must decode or error, never panic.
func FuzzHandshake(f *testing.F) {
	var good bytes.Buffer
	writeHandshake(&good, clientHandshake(testProgram("seed", 32), ClientOptions{Workers: 2, Backend: "perfect"}))
	f.Add(good.Bytes())
	f.Add([]byte("DDRP\x01\x00\x00\x00\x00"))
	f.Add([]byte("DDRP\x01\x02\x00\x00\x00")) // flag bit 1, retired: refused
	f.Add([]byte("DDRP\x01\x00\x00\x02\x01a\x01b\x01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := readHandshake(bufio.NewReader(bytes.NewReader(data)))
		if err == nil && h == nil {
			t.Fatal("nil handshake without error")
		}
	})
}

// FuzzSession drives a full daemon connection with arbitrary client bytes:
// the session must terminate (evicted or completed) without panicking and
// without leaking pipeline goroutines past the response.
func FuzzSession(f *testing.F) {
	var good bytes.Buffer
	p := testProgram("seed", 32)
	writeHandshake(&good, clientHandshake(p, ClientOptions{Backend: "perfect"}))
	streamTrace(&good, p, ClientOptions{})
	f.Add(good.Bytes())
	// Handshake, then a frame claiming more bytes than follow.
	var trunc bytes.Buffer
	writeHandshake(&trunc, clientHandshake(p, ClientOptions{}))
	trunc.Write([]byte{0x80, 0x02, 'D', 'D', 'T', '2'})
	f.Add(trunc.Bytes())
	// Handshake, then a trace carrying a pipeline control kind: a Flush as a
	// DDT2 control record.
	var ctrl bytes.Buffer
	writeHandshake(&ctrl, clientHandshake(p, ClientOptions{}))
	ctrl.Write([]byte{14, 'D', 'D', 'T', '2', 5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(ctrl.Bytes())
	// Handshake, then a trace in the retired format.
	var ddt1 bytes.Buffer
	writeHandshake(&ddt1, clientHandshake(p, ClientOptions{}))
	ddt1.Write([]byte{4, 'D', 'D', 'T', '1', 0})
	f.Add(ddt1.Bytes())
	f.Add([]byte("DDRPxxxx"))
	f.Add([]byte{})

	srv := New(Config{
		IdleTimeout: 200 * time.Millisecond,
		Registry:    telemetry.NewRegistry(),
		MaxSessions: 4,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		client, server := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.handleConn(server)
		}()
		client.SetDeadline(time.Now().Add(2 * time.Second))
		client.Write(data) // best effort; the server may hang up mid-write
		// Drain whatever the server says, then hang up.
		go io.Copy(io.Discard, client)
		time.Sleep(10 * time.Millisecond)
		client.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("session did not terminate")
		}
	})
}
