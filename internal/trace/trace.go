// Package trace records and replays instrumentation event streams.
//
// A Writer is itself a profiler hook: installed into the interpreter it
// serializes every memory access to a compact delta/varint encoding, so a
// target can be executed once and profiled many times offline (different
// signature sizes, different worker counts) by replaying the trace — the
// same run-once/analyze-often workflow the capture step of the Table I
// experiment uses in memory, made durable.
//
// Traces store the raw access stream, not program metadata; replaying
// reproduces all dependences exactly, while loop-carried classification
// additionally needs the program's loop table (events carry context IDs and
// iteration vectors, which remain meaningful alongside the original
// program).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

const magic = "DDT1"

// Record size bounds: the kind byte(s), every varint field at its maximal
// width, and the flags byte.
const (
	maxPointLen = 1 + 7*binary.MaxVarintLen64 + 1
	maxRangeLen = 2 + 10*binary.MaxVarintLen64 + 1
	// minSlab is the floor NewWriterSize clamps to: the magic plus one
	// maximal range record, so every record fits a fresh slab.
	minSlab = len(magic) + maxRangeLen
)

// Writer streams accesses to an io.Writer. It implements the executors'
// BatchHook interface, so it can be installed directly as the "profiler" of a
// recording run. Records are encoded straight into a byte slab the Writer
// owns; a slab that cannot take another maximal record goes out in one Write,
// so every Write carries whole records. Writers are not safe for concurrent
// use; record multi-threaded targets through SyncWriter or Compactor (the
// serializing wrappers) or per-thread writers.
type Writer struct {
	out              io.Writer
	buf              []byte // the slab: len is the bytes pending, cap the Write size limit
	prevAddr, prevTS uint64 // delta context: the previous record's final address and TS
	count            uint64
	err              error
}

// NewWriter starts a trace with the default 64KiB slab.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterSize(w, 0)
}

// NewWriterSize starts a trace whose slab holds size bytes: w receives Writes
// of at most size bytes, each ending on a record boundary, the first one led
// by the stream magic. When w is a FrameWriter every Write is one wire frame,
// so size must stay within the receiving daemon's frame cap (DefaultMaxFrame
// unless configured otherwise). size <= 0 selects the 64KiB default; sizes
// below 107 bytes (the magic plus one maximal range record) are raised to
// that floor.
func NewWriterSize(w io.Writer, size int) (*Writer, error) {
	if size <= 0 {
		size = 1 << 16
	}
	size = max(size, minSlab)
	return &Writer{out: w, buf: append(make([]byte, 0, size), magic...)}, nil
}

// putUvarint writes v at b[n:] and returns the offset past it.
func putUvarint(b []byte, n int, v uint64) int {
	for v >= 0x80 {
		b[n] = byte(v) | 0x80
		v >>= 7
		n++
	}
	b[n] = byte(v)
	return n + 1
}

func putZigzag(b []byte, n int, v int64) int {
	return putUvarint(b, n, uint64((v<<1)^(v>>63)))
}

// room returns the slab extended by need bytes past the pending ones, and the
// offset of the first free byte; a slab too full for that goes out first.
func (w *Writer) room(need int) ([]byte, int) {
	if cap(w.buf)-len(w.buf) < need {
		w.flush()
	}
	n := len(w.buf)
	return w.buf[:n+need], n
}

// flush hands the pending bytes to the destination in one Write. After an
// error nothing is written again: records keep landing in the slab (the hook
// has no way to stop the target) and are dropped here.
func (w *Writer) flush() {
	if w.err == nil && len(w.buf) > 0 {
		_, w.err = w.out.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// Access implements the hook: serialize one event.
func (w *Writer) Access(a event.Access) { w.point(&a) }

func (w *Writer) point(a *event.Access) {
	b, n := w.room(maxPointLen)
	b[n] = byte(a.Kind)
	// Addresses and timestamps are hot and local; delta-encode them.
	n = putZigzag(b, n+1, int64(a.Addr-w.prevAddr))
	n = putZigzag(b, n, int64(a.TS-w.prevTS))
	n = putUvarint(b, n, uint64(a.Loc))
	n = putUvarint(b, n, uint64(a.Var))
	n = putUvarint(b, n, uint64(a.CtxID))
	n = putUvarint(b, n, a.IterVec)
	n = putUvarint(b, n, uint64(a.Thread))
	b[n] = byte(a.Flags)
	w.buf = b[:n+1]
	w.prevAddr, w.prevTS = a.Addr, a.TS
	w.count++
}

// AccessBatch implements event.BatchHook, what the executors hand over: the
// batch's records in order, slab cursor and delta context held in locals
// throughout. A collapsed read goes out 1+Rep times (the wire has no
// repetition count); a RangeRef slot as the range record of ranges[Addr].
func (w *Writer) AccessBatch(accesses []event.Access, ranges []event.Range) {
	b, n := w.buf[:cap(w.buf)], len(w.buf)
	prevAddr, prevTS := w.prevAddr, w.prevTS
	for i := range accesses {
		a := &accesses[i]
		if a.Kind == event.RangeRef {
			w.buf, w.prevAddr, w.prevTS = b[:n], prevAddr, prevTS
			w.Range(ranges[a.Addr])
			n, prevAddr, prevTS = len(w.buf), w.prevAddr, w.prevTS
			continue
		}
		for rep := int(a.Rep); rep >= 0; rep-- {
			if len(b)-n < maxPointLen {
				w.buf = b[:n]
				w.flush()
				n = 0
			}
			b[n] = byte(a.Kind) // point's record, cursor and context in registers
			n = putZigzag(b, n+1, int64(a.Addr-prevAddr))
			n = putZigzag(b, n, int64(a.TS-prevTS))
			n = putUvarint(b, n, uint64(a.Loc))
			n = putUvarint(b, n, uint64(a.Var))
			n = putUvarint(b, n, uint64(a.CtxID))
			n = putUvarint(b, n, a.IterVec)
			n = putUvarint(b, n, uint64(a.Thread))
			b[n] = byte(a.Flags)
			n++
			prevAddr, prevTS = a.Addr, a.TS
		}
		w.count += 1 + uint64(a.Rep)
	}
	w.buf, w.prevAddr, w.prevTS = b[:n], prevAddr, prevTS
}

// Count returns the number of events recorded so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes the trace; the Writer must not be used afterwards.
func (w *Writer) Close() error {
	w.flush()
	return w.err
}

// Err returns the first serialization error, if any.
func (w *Writer) Err() error { return w.err }

// SyncWriter is the serializing wrapper around Writer: a mutex-protected
// hook safe to install when the target program runs multiple threads, each
// of which calls the hook concurrently. Threads' batches are recorded in the
// order they arrive (order along the target's happens-before edges is
// preserved because an executor thread hands its batch over before every
// release operation; see event.Batcher).
type SyncWriter struct {
	mu sync.Mutex
	w  *Writer
}

// NewSyncWriter wraps w; the underlying Writer must no longer be used
// directly while the wrapper is live.
func NewSyncWriter(w *Writer) *SyncWriter { return &SyncWriter{w: w} }

// Access implements the hook under the wrapper's mutex.
func (s *SyncWriter) Access(a event.Access) {
	s.mu.Lock()
	s.w.Access(a)
	s.mu.Unlock()
}

// AccessBatch implements event.BatchHook: one lock per batch.
func (s *SyncWriter) AccessBatch(accesses []event.Access, ranges []event.Range) {
	s.mu.Lock()
	s.w.AccessBatch(accesses, ranges)
	s.mu.Unlock()
}

// Count returns the number of events recorded so far.
func (s *SyncWriter) Count() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Count()
}

// Close flushes the underlying trace.
func (s *SyncWriter) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Close()
}

// Err returns the first serialization error, if any.
func (s *SyncWriter) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Err()
}

// Reader decodes a trace stream one event at a time — the streaming
// counterpart of Replay, used by the ddprofd server to feed network sessions
// into a pipeline without buffering the whole trace.
//
// Reader is hardened against hostile input: a stream cut mid-record returns
// an error wrapping io.ErrUnexpectedEOF, and corrupt bytes (unknown event
// kinds, undefined flag bits, varint overflows) return descriptive errors.
// It never panics.
type Reader struct {
	br   ByteScanner
	prev event.Access
	n    uint64
	// Pending expansion of a decoded range record: Next hands out
	// pendRange.At(pendNext) until the run is drained.
	pendRange event.Range
	pendNext  uint32
	// batchCtl records whether the most recent NextBatch decoded any
	// control record; see BatchControl.
	batchCtl bool
}

// NewReader checks the stream magic and returns a Reader positioned at the
// first event. Inputs that already implement ByteScanner (a *bufio.Reader,
// the daemon's pooled frame stream) are decoded from directly; anything else
// — an in-memory *bytes.Reader included, which offers bytes but no window
// over them — is wrapped in a 64KiB bufio layer, so every Reader batch-decodes
// in the windowed gear.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(ByteScanner)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	m := make([]byte, 4)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	if string(m) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	return &Reader{br: br}, nil
}

// Count returns the number of events decoded so far.
func (r *Reader) Count() uint64 { return r.n }

// noEOF converts a bare io.EOF into io.ErrUnexpectedEOF; any other error
// (including io.ErrUnexpectedEOF itself) passes through.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next decodes one event, expanding range records (one compressed strided
// run on the wire) into their per-element point accesses. It returns io.EOF
// at a clean end of stream (a record boundary); a stream that ends inside a
// record returns an error wrapping io.ErrUnexpectedEOF instead.
func (r *Reader) Next() (event.Access, error) {
	if r.pendNext < r.pendRange.Count {
		a := r.pendRange.At(r.pendNext)
		r.pendNext++
		return a, nil
	}
	rec, err := r.NextRecord()
	if err != nil {
		return event.Access{}, err
	}
	if rec.IsRange {
		r.pendRange = rec.Range
		r.pendNext = 1
		return rec.Range.At(0), nil
	}
	return rec.Access, nil
}

// Record is one decoded trace record: either a point access or a compressed
// strided run. Exactly one of the two is meaningful, selected by IsRange.
type Record struct {
	Access  event.Access
	Range   event.Range
	IsRange bool
}

// NextRecord decodes one record without expanding ranges — the bulk-ingest
// counterpart of Next, used by ddprofd to feed compressed runs straight into
// a pipeline's range path. Count() advances by the element count of each
// record (a range counts as Count events).
func (r *Reader) NextRecord() (Record, error) {
	var rec Record
	kb, err := r.br.ReadByte()
	if err == io.EOF {
		return rec, io.EOF
	}
	if err != nil {
		return rec, err
	}
	if event.Kind(kb) == event.RangeRef {
		rec.Range, err = r.readRange()
		rec.IsRange = true
		return rec, err
	}
	if !pointKind(event.Kind(kb)) {
		return rec, fmt.Errorf("trace: event %d: invalid kind %d", r.n, kb)
	}
	rec.Access, err = r.readPoint(kb)
	return rec, err
}

// pointKind reports whether k may head a DDT1 point record: the data kinds,
// Flush (decodable; the daemon refuses it, an engine ignores it) and
// EpochMark, the one control record clients may embed to cut epochs at
// workload boundaries. Promote is pipeline-internal, and 3, 4 and 6 are
// retired values (event.Kind) that must never reach a worker as data.
func pointKind(k event.Kind) bool {
	return k <= event.Remove || k == event.Flush || k == event.EpochMark
}

func (r *Reader) get() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	return v, nil
}

func (r *Reader) getZig() (int64, error) {
	u, err := r.get()
	return int64(u>>1) ^ -int64(u&1), err
}

// readPoint decodes the body of a point record whose kind byte kb has been
// consumed and validated.
func (r *Reader) readPoint(kb byte) (event.Access, error) {
	var a event.Access
	get := r.get
	getZig := r.getZig
	a.Kind = event.Kind(kb)
	dAddr, err := getZig()
	if err != nil {
		return a, err
	}
	a.Addr = uint64(int64(r.prev.Addr) + dAddr)
	dTS, err := getZig()
	if err != nil {
		return a, err
	}
	a.TS = uint64(int64(r.prev.TS) + dTS)
	var vals [5]uint64
	for i := range vals {
		if vals[i], err = get(); err != nil {
			return a, err
		}
	}
	a.Loc = loc.SourceLoc(vals[0])
	a.Var = loc.VarID(vals[1])
	a.CtxID = uint32(vals[2])
	a.IterVec = vals[3]
	a.Thread = int32(vals[4])
	fb, err := r.br.ReadByte()
	if err != nil {
		return a, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	if event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
		return a, fmt.Errorf("trace: event %d: undefined flag bits %#x", r.n, fb)
	}
	a.Flags = event.Flags(fb)
	r.prev = a
	r.n++
	return a, nil
}

// Replay streams a recorded trace into sink, returning the number of events
// delivered.
func Replay(r io.Reader, sink func(event.Access)) (uint64, error) {
	tr, err := NewReader(r)
	if err != nil {
		return 0, err
	}
	for {
		a, err := tr.Next()
		if err == io.EOF {
			return tr.Count(), nil
		}
		if err != nil {
			return tr.Count(), err
		}
		sink(a)
	}
}

// ReadAll loads a whole trace into memory.
func ReadAll(r io.Reader) ([]event.Access, error) {
	var out []event.Access
	_, err := Replay(r, func(a event.Access) { out = append(out, a) })
	return out, err
}
