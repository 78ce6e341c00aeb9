package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
)

// Length-prefixed framing for trace streams in transit.
//
// The ddprofd wire protocol carries a DDT2 trace as a sequence of frames:
// a uvarint payload length followed by that many bytes, terminated by a
// zero-length frame. Framing gives the server a bounded ingest unit (frames
// larger than a configured cap are rejected before allocation) and gives the
// client an explicit end-of-stream marker that is distinguishable from a
// dropped connection — a plain DDT2 stream ends only by EOF, which over a
// socket is indistinguishable from a crash mid-record.

// DefaultMaxFrame caps the payload size FrameReader accepts unless
// configured otherwise.
const DefaultMaxFrame = 1 << 20

// ErrFrameTooLarge is wrapped by FrameReader errors when a frame exceeds the
// configured cap.
var ErrFrameTooLarge = errors.New("frame exceeds size limit")

// FrameWriter chops a byte stream into length-prefixed frames. Each Write
// becomes exactly one frame; Close emits the zero-length terminator.
type FrameWriter struct {
	w      io.Writer
	closed bool
}

// NewFrameWriter returns a FrameWriter emitting frames to w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// buffersWriter is implemented by destinations that take a frame's header
// and payload as one vectored write of their own (the ddprofd client's
// connection wrapper: one deadline, one writev). Everything else gets
// net.Buffers.WriteTo, which is vectored on a bare net.Conn and sequential
// Writes otherwise.
type buffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// Write implements io.Writer: one call, one frame, sent as a single vectored
// write of header and payload — p is not copied. Empty writes are suppressed
// (a zero-length frame is the terminator, written by Close).
func (f *FrameWriter) Write(p []byte) (int, error) {
	if f.closed {
		return 0, errors.New("trace: write on closed FrameWriter")
	}
	if len(p) == 0 {
		return 0, nil
	}
	var hdr [binary.MaxVarintLen64]byte
	bufs := net.Buffers{hdr[:binary.PutUvarint(hdr[:], uint64(len(p)))], p}
	var err error
	if bw, ok := f.w.(buffersWriter); ok {
		_, err = bw.WriteBuffers(&bufs)
	} else {
		_, err = bufs.WriteTo(f.w)
	}
	if err != nil {
		return 0, err
	}
	return len(p), nil
}

// Close writes the end-of-stream frame. It does not close the underlying
// writer.
func (f *FrameWriter) Close() error {
	if f.closed {
		return nil
	}
	f.closed = true
	_, err := f.w.Write([]byte{0})
	return err
}

// FrameReader reassembles a framed stream: Read returns payload bytes and
// io.EOF after the zero-length terminator frame. A transport EOF before the
// terminator surfaces as an error wrapping io.ErrUnexpectedEOF, so a peer
// that dies mid-stream is never mistaken for a clean end.
//
// FrameReader is a ByteScanner: its window is the underlying bufio.Reader's,
// clipped to the current frame's remaining payload, so NewReader decodes
// straight out of the bufio buffer. Buffered, Peek and Discard never cross a
// frame header; Read and ReadByte step over headers as they come.
type FrameReader struct {
	br        *bufio.Reader
	max       int
	remaining int
	done      bool
	err       error
}

// NewFrameReader reads frames from r. maxFrame <= 0 selects
// DefaultMaxFrame.
func NewFrameReader(r io.Reader, maxFrame int) *FrameReader {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	return &FrameReader{br: br, max: maxFrame}
}

// header reads frame headers until the current frame has payload left: nil
// when it has, io.EOF after the terminator, the sticky error otherwise.
func (f *FrameReader) header() error {
	if f.err != nil {
		return f.err
	}
	if f.done {
		return io.EOF
	}
	for f.remaining == 0 {
		ln, err := binary.ReadUvarint(f.br)
		if err != nil {
			f.err = fmt.Errorf("trace: reading frame header: %w", noEOF(err))
			return f.err
		}
		if ln == 0 {
			f.done = true
			return io.EOF
		}
		if ln > uint64(f.max) {
			f.err = fmt.Errorf("trace: frame of %d bytes: %w", ln, ErrFrameTooLarge)
			return f.err
		}
		f.remaining = int(ln)
	}
	return nil
}

// payloadErr makes a transport error inside a frame's payload sticky.
func (f *FrameReader) payloadErr(err error) error {
	f.err = fmt.Errorf("trace: reading frame payload: %w", noEOF(err))
	return f.err
}

// Read implements io.Reader over the concatenated frame payloads.
func (f *FrameReader) Read(p []byte) (int, error) {
	if err := f.header(); err != nil {
		return 0, err
	}
	if len(p) > f.remaining {
		p = p[:f.remaining]
	}
	n, err := f.br.Read(p)
	f.remaining -= n
	if err != nil {
		err = f.payloadErr(err)
		if n > 0 {
			return n, nil
		}
		return 0, err
	}
	return n, nil
}

// ReadByte implements io.ByteReader over the concatenated frame payloads.
func (f *FrameReader) ReadByte() (byte, error) {
	if err := f.header(); err != nil {
		return 0, err
	}
	b, err := f.br.ReadByte()
	if err != nil {
		return 0, f.payloadErr(err)
	}
	f.remaining--
	return b, nil
}

// Buffered returns the current frame's payload bytes already in the buffer:
// it never blocks and never counts past the frame.
func (f *FrameReader) Buffered() int { return min(f.br.Buffered(), f.remaining) }

// Peek returns the next n payload bytes of the current frame, at most what
// it has left, without advancing.
func (f *FrameReader) Peek(n int) ([]byte, error) { return f.br.Peek(min(n, f.remaining)) }

// Discard skips the next n payload bytes of the current frame, at most what
// it has left.
func (f *FrameReader) Discard(n int) (int, error) {
	n, err := f.br.Discard(min(n, f.remaining))
	f.remaining -= n
	return n, err
}

// Terminated reports whether the end-of-stream frame was seen.
func (f *FrameReader) Terminated() bool { return f.done }
