package trace

// DDT2 range records: the wire form of event.Range. A range record starts
// with the record type byte (7, event.RangeRef), then
//
//	elem kind (1 byte, Read or Write)
//	zigzag delta Base   (from the stream's previous address)
//	zigzag Stride       (signed per-element address delta)
//	uvarint Count       (2 .. maxWireRangeCount)
//	zigzag delta TS     (from the stamp in force)
//	uvarint Loc, Var, CtxID, IterVec, IterDelta, Thread
//	flags (1 byte)
//
// A range names no site and touches none. After it the stream context —
// address, iteration vector, stamp — is that of the run's last element, as if
// its points had been sent. Unlike the in-memory Range (whose arithmetic wraps
// by definition), wire ranges must not wrap: a frame whose
// Base + Stride*(Count-1) leaves the address space is rejected as corrupt
// rather than silently aliasing — the decoder never expands an address the
// encoder did not see. Nor may a range carry a stamp or thread a store slot
// cannot keep (Reader.tooWide).

import (
	"fmt"
	"io"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// maxWireRangeCount bounds the element count a single range record may carry,
// so a hostile 10-byte frame cannot claim 2^32 events and distort accounting
// before the stream errors out.
const maxWireRangeCount = 1 << 24

// rangeWraps reports whether base + stride*(count-1) leaves the uint64
// address space (in either direction).
func rangeWraps(base uint64, stride int64, count uint32) bool {
	if count < 2 || stride == 0 {
		return false
	}
	span := uint64(count - 1)
	if stride > 0 {
		return span > (^uint64(0)-base)/uint64(stride)
	}
	return span > base/uint64(-stride)
}

// wireRangeOK reports whether r is expressible as a range record.
func wireRangeOK(r *event.Range) bool {
	return (r.Kind == event.Read || r.Kind == event.Write) &&
		r.Count >= 2 && r.Count <= maxWireRangeCount &&
		!rangeWraps(r.Base, int64(r.Stride), r.Count)
}

// Range serializes one compressed strided run as a single record. The run
// must be wire-expressible (Read/Write, 2 <= Count <= 1<<24, no address
// wrap); an inexpressible range poisons the Writer with an error instead of
// writing a frame every reader would reject.
func (w *Writer) Range(r event.Range) {
	if w.err != nil {
		return
	}
	if !wireRangeOK(&r) {
		w.err = fmt.Errorf("trace: range not wire-expressible (kind %v, count %d, base %#x, stride %d)",
			r.Kind, r.Count, r.Base, int64(r.Stride))
		return
	}
	b, n := w.room(maxRangeLen)
	b[n], b[n+1] = recRange, byte(r.Kind)
	n = putZigzag(b, n+2, int64(r.Base-w.prevAddr))
	n = putZigzag(b, n, int64(r.Stride))
	n = putUvarint(b, n, uint64(r.Count))
	n = putZigzag(b, n, int64(r.TS-w.ts))
	n = putUvarint(b, n, uint64(r.Loc))
	n = putUvarint(b, n, uint64(r.Var))
	n = putUvarint(b, n, uint64(r.CtxID))
	n = putUvarint(b, n, r.IterVec)
	n = putUvarint(b, n, r.IterDelta)
	n = putUvarint(b, n, uint64(r.Thread))
	b[n] = byte(r.Flags)
	w.buf = b[:n+1]
	w.prevAddr, w.prevIter, w.ts = r.Last(), lastIter(&r), r.TS
	w.count += uint64(r.Count)
}

// lastIter returns the iteration vector of r's final element.
func lastIter(r *event.Range) uint64 { return r.IterVec + uint64(r.Count-1)*r.IterDelta }

// readRange decodes the body of a range record whose type byte has been
// consumed. It validates every field a hostile stream could abuse — element
// kind, count bounds, address-space wrap, undefined flag bits — before
// committing the run to the stream context.
func (r *Reader) readRange(br io.ByteReader) (event.Range, error) {
	var rg event.Range
	kb, err := r.getByte(br)
	if err != nil {
		return rg, err
	}
	if k := event.Kind(kb); k != event.Read && k != event.Write {
		return rg, fmt.Errorf("trace: event %d: invalid range element kind %d", r.n, kb)
	}
	rg.Kind = event.Kind(kb)
	dBase, err := r.getZig(br)
	if err != nil {
		return rg, err
	}
	rg.Base = r.prevAddr + uint64(dBase)
	stride, err := r.getZig(br)
	if err != nil {
		return rg, err
	}
	rg.Stride = uint64(stride)
	cnt, err := r.get(br)
	if err != nil {
		return rg, err
	}
	if cnt < 2 || cnt > maxWireRangeCount {
		return rg, fmt.Errorf("trace: event %d: range count %d out of bounds", r.n, cnt)
	}
	rg.Count = uint32(cnt)
	if rangeWraps(rg.Base, stride, rg.Count) {
		return rg, fmt.Errorf("trace: event %d: range %#x + %d*%d overflows the address space",
			r.n, rg.Base, stride, rg.Count-1)
	}
	dTS, err := r.getZig(br)
	if err != nil {
		return rg, err
	}
	rg.TS = r.ts + uint64(dTS)
	var vals [6]uint64
	if rg.Flags, err = r.getFields(br, vals[:]); err != nil {
		return rg, err
	}
	rg.Loc = loc.SourceLoc(vals[0])
	rg.Var = loc.VarID(vals[1])
	rg.CtxID = uint32(vals[2])
	rg.IterVec = vals[3]
	rg.IterDelta = vals[4]
	if err := r.tooWide("stamp", rg.TS, event.MaxTS); err != nil {
		return rg, err
	}
	if err := r.tooWide("thread", vals[5], event.MaxThread); err != nil {
		return rg, err
	}
	rg.Thread = int32(vals[5])
	r.prevAddr, r.prevIter, r.ts = rg.Last(), lastIter(&rg), rg.TS
	r.n += uint64(rg.Count)
	return rg, nil
}
