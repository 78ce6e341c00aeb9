package server

// The two-stage session ingest pipeline. Stage 1 (the socket goroutine)
// reads length-prefixed DDT2 frames into pooled payload buffers; stage 2
// (the decode goroutine) batch-decodes them into event chunks via
// trace.Reader.NextBatch, reading straight out of the pooled buffers; the
// session goroutine validates each batch and feeds it to the pipeline's
// bulk-ingest seam. Bounded channels between the stages let socket read,
// decode, and profiling overlap while record order — and therefore
// epoch-mark placement — is preserved end to end, and keep pipeline
// backpressure intact: a stalled profiler fills the chunk ring, which stalls
// the decoder, which fills the frame ring, which stops the socket reads.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ddprof/internal/event"
	"ddprof/internal/trace"
)

// minFrameBuf is the minimum capacity of a pooled frame buffer — the
// client's default flush granularity — so one buffer serves any default-
// sized frame no matter which frame first allocated it.
const minFrameBuf = 64 << 10

// ingestFramePool recycles frame payload buffers across frames and sessions.
var ingestFramePool sync.Pool

// getFrameBuf returns an n-byte buffer, pooled when one large enough is
// available; the bool reports whether the buffer was reused.
func getFrameBuf(n int) ([]byte, bool) {
	if v := ingestFramePool.Get(); v != nil {
		if b := *(v.(*[]byte)); cap(b) >= n {
			return b[:n], true
		}
		// Too small for this frame: drop it and size up, so a stream of
		// large frames converges on buffers that fit.
	}
	c := n
	if c < minFrameBuf {
		c = minFrameBuf
	}
	return make([]byte, n, c), false
}

func putFrameBuf(b []byte) {
	b = b[:0]
	ingestFramePool.Put(&b)
}

// ingestBatch is one decoded chunk plus the stream event index of its first
// record (ranges weighted by element count), which keeps error reporting
// identical to the record-at-a-time path. events is the decoder's event count
// for the batch, and ctl whether it holds any control record: a pure data
// batch (the common case) skips per-record inspection in feedBatch.
type ingestBatch struct {
	c      *event.Chunk
	base   uint64
	events uint64
	ctl    bool
}

// ingest owns a session's two ingest-stage goroutines and the rings between
// them.
type ingest struct {
	frames chan []byte      // stage 1 → stage 2: pooled frame payloads
	out    chan ingestBatch // stage 2 → session: decoded batches
	free   chan *event.Chunk
	done   chan struct{}
	wg     sync.WaitGroup
	conn   net.Conn

	readErr   error // stage-1 terminal error; written before frames closes
	decodeErr error // stage-2 terminal error; written before out closes
	// The decoder's define-record counts (trace.Reader.SiteDefines), written
	// before out closes.
	defines, redefines uint64

	reused atomic.Uint64
	fresh  atomic.Uint64
}

// startIngest launches the two stages. br must be positioned just past the
// handshake; depth bounds both inter-stage rings.
func startIngest(conn net.Conn, br *bufio.Reader, depth int) *ingest {
	ing := &ingest{
		frames: make(chan []byte, depth),
		out:    make(chan ingestBatch, depth),
		free:   make(chan *event.Chunk, depth),
		done:   make(chan struct{}),
		conn:   conn,
	}
	for i := 0; i < depth; i++ {
		ing.free <- event.NewChunk()
	}
	ing.wg.Add(2)
	go ing.readFrames(br)
	go ing.decode()
	return ing
}

// stop tears the stages down from the session goroutine: wake anything
// blocked on a ring, kick a blocked socket read off its wait with an
// immediate deadline, and join. On a cleanly terminated stream both stages
// have already exited and this is just the join.
func (ing *ingest) stop() {
	close(ing.done)
	ing.conn.SetReadDeadline(time.Now())
	ing.wg.Wait()
}

// err returns the ingest pipeline's terminal error, valid once out is
// closed. A clean terminator yields nil.
func (ing *ingest) err() error {
	if ing.decodeErr == io.EOF {
		return nil
	}
	return ing.decodeErr
}

// readFrames is stage 1: length-prefixed frames off the socket into pooled
// buffers. It replaces trace.FrameReader on the ingest path and mirrors its
// validation and error text exactly.
func (ing *ingest) readFrames(br *bufio.Reader) {
	defer ing.wg.Done()
	defer close(ing.frames)
	for {
		ln, err := binary.ReadUvarint(br)
		if err != nil {
			ing.readErr = fmt.Errorf("trace: reading frame header: %w", noEOF(err))
			return
		}
		if ln == 0 {
			return // clean stream terminator
		}
		if ln > trace.DefaultMaxFrame {
			ing.readErr = fmt.Errorf("trace: frame of %d bytes: %w", ln, trace.ErrFrameTooLarge)
			return
		}
		buf, reused := getFrameBuf(int(ln))
		if reused {
			ing.reused.Add(1)
		} else {
			ing.fresh.Add(1)
		}
		if _, err := io.ReadFull(br, buf); err != nil {
			ing.readErr = fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
			return
		}
		select {
		case ing.frames <- buf:
		case <-ing.done:
			return
		}
	}
}

// decode is stage 2: frames → batched chunks. A batch naturally covers about
// one frame (NextBatch yields as soon as nothing further is buffered), so
// decoding overlaps both the socket reads behind it and the profiling ahead
// of it.
func (ing *ingest) decode() {
	defer ing.wg.Done()
	defer close(ing.out)
	fs := &frameStream{ing: ing}
	tr, err := trace.NewReader(fs)
	if err != nil {
		ing.decodeErr = err
		return
	}
	for {
		var c *event.Chunk
		select {
		case c = <-ing.free:
		case <-ing.done:
			return
		}
		c.Reset()
		base := tr.Count()
		n, err := tr.NextBatch(c)
		if n > 0 {
			ib := ingestBatch{c: c, base: base, events: tr.Count() - base, ctl: tr.BatchControl()}
			select {
			case ing.out <- ib:
			case <-ing.done:
				return
			}
		} else {
			// The free ring has capacity for every chunk, so this never
			// blocks.
			ing.free <- c
		}
		if err != nil {
			ing.decodeErr = err // io.EOF for a clean stream
			ing.defines, ing.redefines = tr.SiteDefines()
			return
		}
	}
}

// frameStream adapts the pooled frame ring to trace.ByteScanner, byte reads
// and window alike: NextBatch peeks each frame's payload as one
// contiguous window and decodes records flat out of the pooled buffer — zero
// copies between the socket read and the decoded event fields. Exhausted
// buffers go straight back to the pool.
type frameStream struct {
	ing *ingest
	cur []byte
	pos int
}

// next recycles the current buffer and blocks for the next frame, reporting
// false when the frame ring has closed.
func (f *frameStream) next() bool {
	if f.cur != nil {
		putFrameBuf(f.cur)
		f.cur = nil
		f.pos = 0
	}
	b, ok := <-f.ing.frames
	if !ok {
		return false
	}
	f.cur, f.pos = b, 0
	return true
}

// err is the terminal state once the frame ring has closed: the stage-1
// error, or a clean io.EOF after the stream terminator.
func (f *frameStream) err() error {
	if e := f.ing.readErr; e != nil {
		return e
	}
	return io.EOF
}

func (f *frameStream) ReadByte() (byte, error) {
	for f.pos >= len(f.cur) {
		if !f.next() {
			return 0, f.err()
		}
	}
	b := f.cur[f.pos]
	f.pos++
	return b, nil
}

func (f *frameStream) Read(p []byte) (int, error) {
	for f.pos >= len(f.cur) {
		if !f.next() {
			return 0, f.err()
		}
	}
	n := copy(p, f.cur[f.pos:])
	f.pos += n
	return n, nil
}

func (f *frameStream) Buffered() int { return len(f.cur) - f.pos }

func (f *frameStream) Peek(n int) ([]byte, error) {
	if rem := len(f.cur) - f.pos; n > rem {
		n = rem
	}
	return f.cur[f.pos : f.pos+n], nil
}

func (f *frameStream) Discard(n int) (int, error) {
	if rem := len(f.cur) - f.pos; n > rem {
		n = rem
	}
	f.pos += n
	return n, nil
}
