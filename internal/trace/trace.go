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
	"errors"
	"fmt"
	"io"
	"sync"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// DDT2, the wire format. A stream is the magic then records. The first byte
// of a record says what it is: even, a data access (Read, Write, Remove) by a
// known site; odd, one of three record types.
//
//	data     slot<<1 as 2 bytes little-endian, zigzag dAddr, zigzag dIterVec
//	define   1, slot as 2 bytes little-endian, kind, uvarint Loc, Var, CtxID,
//	         Thread, flags
//	stamp    3, zigzag dTS
//	range    7, see range.go
//
// Type 5, the retired control record, is refused by name: a stream carries
// accesses only, and ending a run is the profiler's Flush, not a record.
// A stamp or range record that moves the stamp past event.MaxTS, and a define
// or range record whose thread is past event.MaxThread, are refused: a store
// slot keeps no more of either.
// Writer and Reader each hold siteSlots site templates — everything about an
// access but its address, iteration vector and stamp — and a define record
// binds a slot to one; the Writer sends it when the slot it hashes an access
// to holds another template (or none), so an instruction's fields cross the
// wire once and each of its executions costs four bytes. dAddr is taken from
// the site's previous address, which a define sets to the stream's (the final
// address of the previous data or range record); dIterVec from the stream's
// previous iteration vector; dTS moves the stamp every later data record
// carries.
const (
	magic        = "DDT2"
	retiredMagic = "DDT1"

	recDefine  = 1
	recStamp   = 3
	recRetired = 5 // the retired control record, refused by name (record)
	recRange   = byte(event.RangeRef)

	siteBits  = 12
	siteSlots = 1 << siteBits
)

// ErrDDT1 is what NewReader answers the retired DDT1 magic with.
var ErrDDT1 = errors.New("trace: DDT1 stream: the format is retired and has no decoder left; re-record the trace (this version writes DDT2)")

// Record size bounds: type and header bytes, every varint field at its
// maximal width, and the flags byte. A point is a data record with the define
// and stamp records it may need ahead of it.
const (
	maxDefineLen = 4 + 4*binary.MaxVarintLen64 + 1
	maxStampLen  = 1 + binary.MaxVarintLen64
	maxDataLen   = 2 + 2*binary.MaxVarintLen64
	maxPointLen  = maxDefineLen + maxStampLen + maxDataLen
	maxRangeLen  = 2 + 10*binary.MaxVarintLen64 + 1
	// minSlab is the floor NewWriterSize clamps to: the magic plus one
	// maximal range record, so every record fits a fresh slab.
	minSlab = len(magic) + maxRangeLen
)

// site is one slot of the table: a template and the address its previous
// execution touched.
type site struct {
	last uint64
	key  siteKey
}

// siteKey is a site template packed in the words its slot method hashes:
// Loc|Var<<32, CtxID|Thread<<32, and Kind|Flags<<8 with bit 16 set, so that
// the zero key is a slot no define has bound. The fields lie in
// event.Access's order, so packing and unpacking are wide loads and stores,
// and comparing two templates is three compares.
type siteKey struct {
	lv, ct uint64
	kf     uint32
}

// keyOf returns a's template.
func keyOf(a *event.Access) siteKey {
	return siteKey{
		lv: uint64(a.Loc) | uint64(a.Var)<<32,
		ct: uint64(a.CtxID) | uint64(uint32(a.Thread))<<32,
		kf: uint32(a.Kind) | uint32(a.Flags)<<8 | 1<<16,
	}
}

// fill writes the template's fields into e.
func (k siteKey) fill(e *event.Access) {
	e.Loc, e.Var = loc.SourceLoc(k.lv), loc.VarID(k.lv>>32)
	e.CtxID, e.Thread = uint32(k.ct), int32(k.ct>>32)
	e.Kind, e.Flags = event.Kind(k.kf), event.Flags(k.kf>>8)
}

// siteTable is the state a Writer and the Reader of its stream keep in step:
// fixed in size, so nothing a peer sends can grow it.
type siteTable struct {
	sites              [siteSlots]site
	defines, redefines uint64
}

// bind points slot at template k, whose address context starts at last.
func (t *siteTable) bind(slot uint, k siteKey, last uint64) {
	s := &t.sites[slot]
	t.defines++
	if s.key.kf != 0 {
		t.redefines++
	}
	*s = site{last: last, key: k}
}

// SiteDefines returns how many define records the stream has carried so far,
// and how many of them took a slot from another template: two hot sites
// sharing a slot pay a define per access, and this is where it shows.
func (t *siteTable) SiteDefines() (defines, redefines uint64) { return t.defines, t.redefines }

// slot is the Writer's choice of slot for template k. The stream names the
// slot in every record, so no Reader depends on the function.
func (k siteKey) slot() uint {
	y := k.ct ^ uint64(uint8(k.kf))<<28 ^ uint64(uint8(k.kf>>8))<<30
	return uint((k.lv*0x9e3779b97f4a7c15 ^ y*0xc2b2ae3d27d4eb4f) >> (64 - siteBits))
}

// Writer streams accesses to an io.Writer. It implements the executors'
// BatchHook interface, so it can be installed directly as the "profiler" of a
// recording run. Records are encoded straight into a byte slab the Writer
// owns; a slab that cannot take another maximal record goes out in one Write,
// so every Write carries whole records. Writers are not safe for concurrent
// use; record multi-threaded targets through SyncWriter or Compactor (the
// serializing wrappers) or per-thread writers.
type Writer struct {
	out io.Writer
	buf []byte // the slab: len is the bytes pending, cap the Write size limit
	// The stream context: the previous data or range record's final address
	// and iteration vector, and the stamp in force.
	prevAddr, prevIter, ts uint64
	count                  uint64
	err                    error
	siteTable
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

// point serializes one access. A kind that is no access (event.Flush, a
// retired kind) has no record: it poisons the Writer, as an inexpressible
// range does, instead of writing bytes every Reader would refuse.
func (w *Writer) point(a *event.Access) {
	if !dataKind(a.Kind) {
		if w.err == nil {
			w.err = fmt.Errorf("trace: kind %v is not an access: DDT2 records reads, writes and removes only", a.Kind)
		}
		return
	}
	b, n := w.room(maxPointLen)
	w.count++
	k := keyOf(a)
	slot := k.slot()
	s := &w.sites[slot]
	if s.key != k {
		n = w.define(b, n, slot, a, k)
	}
	if a.TS != w.ts {
		b[n] = recStamp
		n = putZigzag(b, n+1, int64(a.TS-w.ts))
		w.ts = a.TS
	}
	b[n], b[n+1] = byte(slot<<1), byte(slot>>7)
	n = putZigzag(b, n+2, int64(a.Addr-s.last))
	w.buf = b[:putZigzag(b, n, int64(a.IterVec-w.prevIter))]
	s.last, w.prevAddr, w.prevIter = a.Addr, a.Addr, a.IterVec
}

// define binds slot to a's template k on this side and writes the record
// that does so on the other.
func (w *Writer) define(b []byte, n int, slot uint, a *event.Access, k siteKey) int {
	w.bind(slot, k, w.prevAddr)
	b[n], b[n+1], b[n+2], b[n+3] = recDefine, byte(slot), byte(slot>>8), byte(a.Kind)
	n = putUvarint(b, n+4, uint64(a.Loc))
	n = putUvarint(b, n, uint64(a.Var))
	n = putUvarint(b, n, uint64(a.CtxID))
	n = putUvarint(b, n, uint64(a.Thread))
	b[n] = byte(a.Flags)
	return n + 1
}

// AccessBatch implements event.BatchHook, what the executors hand over: the
// batch's records in order. The run kernel encodes every record it can; each
// record it stops at goes through the per-record encoders before the kernel
// resumes. A RangeRef slot goes out as the range record of ranges[Addr]; a
// slot of any other kind poisons the Writer (point).
func (w *Writer) AccessBatch(accesses []event.Access, ranges []event.Range) {
	for i := w.run(accesses); i < len(accesses); i += 1 + w.run(accesses[i+1:]) {
		if a := &accesses[i]; a.Kind == event.RangeRef {
			w.Range(ranges[a.Addr])
		} else {
			w.point(a) // a full slab, a site to define, or no access at all
		}
	}
}

// run is AccessBatch's kernel: it encodes the leading records of accesses
// that are data records of resident sites while the slab has room for a
// point, stamp records inline, and returns how many it encoded. It makes no
// call, so the slab cursor, the stream context and the record in hand stay in
// registers; it stops at the first record that needs more (point's room test
// and define, a range, a kind that is no access), which keeps the slab's
// flushes, and so every Write, where point puts them.
func (w *Writer) run(accesses []event.Access) int {
	b, n := w.buf[:cap(w.buf)], len(w.buf)
	prevIter, ts := w.prevIter, w.ts
	sites := &w.sites
	i := 0
	for ; i < len(accesses); i++ {
		a := &accesses[i]
		if a.Kind > event.Remove || len(b)-n < maxPointLen {
			break
		}
		k := keyOf(a)
		slot := k.slot()
		s := &sites[slot]
		if s.key != k {
			break
		}
		if a.TS != ts {
			b[n] = recStamp
			n = putZigzag(b, n+1, int64(a.TS-ts))
			ts = a.TS
		}
		binary.LittleEndian.PutUint16(b[n:], uint16(slot<<1))
		n = putZigzag(b, n+2, int64(a.Addr-s.last))
		n = putZigzag(b, n, int64(a.IterVec-prevIter))
		s.last, prevIter = a.Addr, a.IterVec
	}
	if i > 0 {
		w.buf, w.prevAddr, w.prevIter, w.ts = b[:n], accesses[i-1].Addr, prevIter, ts
		w.count += uint64(i)
	}
	return i
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

// Reader decodes a trace stream as it arrives, with NextBatch into event
// chunks: this is how a ddprofd session and ProfileTrace feed a profiler
// without buffering the whole trace.
//
// Reader is hardened against hostile input: a stream cut mid-record returns
// an error wrapping io.ErrUnexpectedEOF, and corrupt bytes (unknown record
// types and kinds, slots out of range or never defined, undefined flag bits,
// varint overflows) return descriptive errors. It never panics, and its state
// is the fixed site table and a carry of one record: no input grows it.
type Reader struct {
	br ByteScanner
	// The stream context, as in Writer.
	prevAddr, prevIter, ts uint64
	n                      uint64
	siteTable
	carry [maxRangeLen]byte // a record cut by the window's edge (NextBatch)
}

// NewReader checks the stream magic and returns a Reader positioned at the
// first event; a DDT1 stream is refused with ErrDDT1. Inputs that already
// implement ByteScanner (a *bufio.Reader, a FrameReader) are decoded from
// directly; anything else — an in-memory *bytes.Reader included, which offers
// bytes but no window over them — is wrapped in a 64KiB bufio layer, so every
// Reader decodes from a window.
func NewReader(r io.Reader) (*Reader, error) {
	br, ok := r.(ByteScanner)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	m := make([]byte, 4)
	if _, err := io.ReadFull(br, m); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
	}
	switch string(m) {
	case magic:
		return &Reader{br: br}, nil
	case retiredMagic:
		return nil, ErrDDT1
	}
	return nil, fmt.Errorf("trace: bad magic %q", m)
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

// dataKind reports whether k may be a site's kind. Flush is the pipeline's
// own, and 3, 4, 6, 8 and 9 are retired values (event.Kind): none may reach a
// worker as data.
func dataKind(k event.Kind) bool { return k <= event.Remove }

// tooWide refuses a stamp or thread v past limit, the widest a store slot keeps
// of it (event.MaxTS, event.MaxThread).
func (r *Reader) tooWide(field string, v, limit uint64) error {
	if v <= limit {
		return nil
	}
	return fmt.Errorf("trace: event %d: %s %d is past %d, the widest a store slot keeps", r.n, field, v, limit)
}

func (r *Reader) truncated(err error) error {
	return fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
}

func unzig(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
