package trace

// Batched decode: NextBatch turns a stretch of DDT2 bytes into one
// event.Chunk — point records as chunk slots, range records in the chunk's
// side table behind RangeRef slots — which is exactly the layout the pipeline
// producers build in memory. A remote session can therefore hand decoded
// batches to a pipeline's bulk-ingest seam with no per-record interface
// dispatch and no intermediate copies.
//
// The decoder has two gears. Data records — the bulk of every trace — that lie
// whole inside the input's buffered window (bufio's, clipped to the current
// frame by a FrameReader) are decoded flat out of the window slice with an inlined varint fast
// path. Every other record type is read by the byte-at-a-time decoder (step),
// from the window when it is whole there; records that cross a window edge —
// and any byte sequence that fails validation — go to the same decoder on the
// stream itself, which already handles blocking, stitching across frames, and
// error reporting. Both gears commit only fully valid records, so every error
// NextBatch can return is byte-for-byte a NextRecord error.

import (
	"encoding/binary"
	"io"

	"ddprof/internal/event"
)

// ByteScanner is the input surface Reader decodes from: byte reads for the
// record-at-a-time decoder, plus a window over the already-buffered bytes
// (and a way to discard a decoded prefix of it) so NextBatch can decode whole
// records without per-byte dispatch. *bufio.Reader implements it, as does
// FrameReader; NewReader wraps any other io.Reader in a *bufio.Reader.
type ByteScanner interface {
	io.Reader
	io.ByteReader
	Buffered() int
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// NextBatch decodes as many whole records as fit into c: data records become
// chunk slots, range records land in the side table behind a RangeRef slot
// whose Addr is the side-table index. It returns the number of slots appended.
//
// A batch ends when the chunk runs out of event or range capacity, at a clean
// end of stream (io.EOF may accompany a nonzero slot count), or — once at
// least one record has been decoded — when the input has no further bytes
// buffered, so batch boundaries track the cadence of arriving frames rather
// than blocking on the network mid-batch. NextBatch may be mixed with
// NextRecord on the same Reader.
func (r *Reader) NextBatch(c *event.Chunk) (int, error) {
	appended := 0
	for {
		if c.Full() || c.RangesFull() {
			return appended, nil
		}
		k := r.br.Buffered()
		if k == 0 && appended > 0 {
			return appended, nil
		}
		if k > 0 {
			win, _ := r.br.Peek(k)
			m, used := r.decodeWindow(win, c)
			if used > 0 {
				r.br.Discard(used)
			}
			appended += m
			if used > 0 {
				continue // define and stamp records alone are progress too
			}
			// The leading record crosses the window edge or fails to
			// validate: resolve it byte-at-a-time below.
		}
		rec, err := r.NextRecord()
		if err != nil {
			return appended, err
		}
		emit(c, &rec)
		appended++
	}
}

// emit appends rec to c the way NextBatch lays a chunk out.
func emit(c *event.Chunk, rec *Record) {
	if rec.IsRange {
		c.Append(event.Access{Addr: uint64(c.AppendRange(rec.Range)), Kind: event.RangeRef})
		return
	}
	c.Append(rec.Access)
}

// window is the io.ByteReader step reads a record from when decodeWindow
// meets one that is not a data record.
type window struct {
	b   []byte
	pos int
}

func (w *window) ReadByte() (byte, error) {
	if w.pos >= len(w.b) {
		return 0, io.EOF
	}
	w.pos++
	return w.b[w.pos-1], nil
}

// decodeWindow decodes whole records from win into c until the window or the
// chunk runs out, or a record cannot be decoded from the bytes in hand. It
// returns the slots appended and the bytes consumed; define and stamp records
// are consumed without a slot.
//
// Data records are decoded by the loop body itself: the chunk cursor and the
// stream context live in locals, the site is one table load, each delta takes
// one compare on the single-byte-varint fast path, and the event is written
// straight into its chunk slot; a stamp record is one varint more. The other
// record types are rare and go through step, with the context synced around
// the call; what step cannot finish inside the window is left for NextRecord
// to finish on the stream. One data record is one slot: a repeated read
// reaches the engine as it was sent, and its run kernel folds it there.
func (r *Reader) decodeWindow(win []byte, c *event.Chunk) (slots, used int) {
	evs := c.Events[:cap(c.Events)]
	ne := len(c.Events)
	prevAddr, prevIter, ts := r.prevAddr, r.prevIter, r.ts
	points := uint64(0) // data records to fold into r.n on exit
	for used < len(win) && ne < len(evs) {
		b := win[used:]
		if b[0]&1 != 0 {
			if b[0] == recStamp { // as often as a threaded target synchronises
				d, n := binary.Uvarint(b[1:])
				if n <= 0 || ts+uint64(unzig(d)) > event.MaxTS {
					break // step names the error
				}
				ts += uint64(unzig(d))
				used += 1 + n
				continue
			}
			if b[0] == recRange && c.RangesFull() {
				break
			}
			r.prevAddr, r.prevIter, r.ts = prevAddr, prevIter, ts
			r.win = window{b: b}
			rec, events, err := r.step(&r.win)
			prevAddr, prevIter, ts = r.prevAddr, r.prevIter, r.ts
			if err != nil {
				break
			}
			used += r.win.pos
			if events {
				c.Events = evs[:ne]
				emit(c, &rec)
				ne++
				slots++
			}
			continue
		}
		// A data record: two header bytes and two zigzag deltas, decoded with
		// binary.Uvarint's exact overflow rules, so the fast path never
		// accepts bytes the slow path would reject.
		if len(b) < 4 {
			break
		}
		slot := uint(b[0])>>1 | uint(b[1])<<7
		if slot >= siteSlots {
			break
		}
		s := &r.sites[slot]
		if !s.live {
			break
		}
		dAddr, pos := uint64(b[2]), 3
		if dAddr >= 0x80 {
			var n int
			if dAddr, n = binary.Uvarint(b[2:]); n <= 0 {
				break
			}
			pos = 2 + n
		}
		if pos >= len(b) {
			break
		}
		dIter := uint64(b[pos])
		pos++
		if dIter >= 0x80 {
			var n int
			if dIter, n = binary.Uvarint(b[pos-1:]); n <= 0 {
				break
			}
			pos += n - 1
		}
		s.last += uint64(unzig(dAddr))
		prevAddr = s.last
		prevIter += uint64(unzig(dIter))
		// Field by field: a composite literal is built on the stack and
		// copied out in 16-byte moves that wait on its narrower stores.
		e := &evs[ne]
		e.Addr, e.TS, e.IterVec = prevAddr, ts, prevIter
		e.Loc, e.Var, e.CtxID, e.Thread = s.loc, s.vr, s.ctx, s.thread
		e.Kind, e.Flags = s.kind, s.flags
		ne++
		points++
		used += pos
		slots++
	}
	r.prevAddr, r.prevIter, r.ts = prevAddr, prevIter, ts
	r.n += points
	c.Events = evs[:ne]
	return slots, used
}
