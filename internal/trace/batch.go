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
// The points kernel decodes the data and stamp records; each record it stops
// at goes through step, reading from the window, before the kernel resumes.
// What step cannot finish inside the window (a record cut by the window's
// edge, or one that fails validation) is left for NextRecord to finish on the
// stream. One data record is one slot: a repeated read reaches the engine as
// it was sent, and its run kernel folds it there.
func (r *Reader) decodeWindow(win []byte, c *event.Chunk) (slots, used int) {
	for {
		n := len(c.Events)
		m, u := r.points(win[used:], c.Events[n:cap(c.Events)])
		c.Events = c.Events[:n+m]
		slots += m
		used += u
		if used == len(win) || c.Full() {
			return slots, used
		}
		// A data or stamp record here is one the kernel could not take:
		// NextRecord finishes it on the stream.
		b := win[used:]
		if b[0]&1 == 0 || b[0] == recStamp || b[0] == recRange && c.RangesFull() {
			return slots, used
		}
		r.win = window{b: b}
		rec, events, err := r.step(&r.win)
		if err != nil {
			return slots, used
		}
		used += r.win.pos
		if events {
			emit(c, &rec)
			slots++
		}
	}
}

// points is decodeWindow's kernel: it decodes the leading data and stamp
// records of win into evs, and returns the events written and the bytes
// used. It stops at any other record type, at a record not whole in win or
// failing validation, and when evs is full. It makes no call, so the window
// and chunk cursors and the stream context stay in registers; a site is one
// table load, each delta one compare on the single-byte varint path, and the
// event is written straight into its slot. Deltas are decoded with
// binary.Uvarint's exact overflow rules, so the kernel never accepts bytes
// step would refuse.
func (r *Reader) points(win []byte, evs []event.Access) (ne, used int) {
	prevIter, ts := r.prevIter, r.ts
	sites := &r.sites
	// The multi-byte varints are decoded from slices of win; with its cap cut
	// to its length, slicing it carries no third word round the loop.
	win = win[:len(win):len(win)]
	for used < len(win) && ne < len(evs) {
		b0 := win[used]
		if b0&1 != 0 {
			if b0 != recStamp { // as often as a threaded target synchronises
				break
			}
			d, n := binary.Uvarint(win[used+1:])
			if n <= 0 || ts+uint64(unzig(d)) > event.MaxTS {
				break
			}
			ts += uint64(unzig(d))
			used += 1 + n
			continue
		}
		// A data record: two header bytes and two zigzag deltas.
		if len(win)-used < 4 {
			break
		}
		slot := uint(b0)>>1 | uint(win[used+1])<<7
		if slot >= siteSlots {
			break
		}
		s := &sites[slot]
		if s.key.kf == 0 {
			break
		}
		pos := used + 2
		dAddr := uint64(win[pos])
		pos++
		if dAddr >= 0x80 {
			var n int
			if dAddr, n = binary.Uvarint(win[pos-1:]); n <= 0 {
				break
			}
			pos += n - 1
		}
		if pos >= len(win) {
			break
		}
		dIter := uint64(win[pos])
		pos++
		if dIter >= 0x80 {
			var n int
			if dIter, n = binary.Uvarint(win[pos-1:]); n <= 0 {
				break
			}
			pos += n - 1
		}
		s.last += uint64(unzig(dAddr))
		prevIter += uint64(unzig(dIter))
		// Field by field: a composite literal is built on the stack and
		// copied out in 16-byte moves that wait on its narrower stores.
		e := &evs[ne]
		e.Addr, e.TS, e.IterVec = s.last, ts, prevIter
		s.key.fill(e)
		ne++
		used = pos
	}
	r.prevIter, r.ts = prevIter, ts
	if ne > 0 {
		r.prevAddr = evs[ne-1].Addr
		r.n += uint64(ne)
	}
	return ne, used
}
