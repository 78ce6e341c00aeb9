package trace

// Batched decode: NextBatch turns a stretch of DDT1 bytes into one
// event.Chunk — point records as chunk slots, range records in the chunk's
// side table behind RangeRef slots — which is exactly the layout the pipeline
// producers build in memory. A remote session can therefore hand decoded
// batches to a pipeline's bulk-ingest seam with no per-record interface
// dispatch and no intermediate copies.
//
// The decoder has two gears. Whole records inside the input's buffered window
// (bufio's, or the daemon's pooled frame) are decoded flat out of the window
// slice with an inlined varint fast path. Records that cross a window edge —
// and any byte sequence that fails validation — fall back to the
// byte-at-a-time NextRecord decoder, which already handles blocking,
// stitching across frames, and error reporting; the windowed path commits
// only fully valid records, so every error NextBatch can return is
// byte-for-byte a NextRecord error.

import (
	"encoding/binary"
	"io"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// ByteScanner is the input surface Reader decodes from: byte reads for the
// record-at-a-time decoder, plus a window over the already-buffered bytes
// (and a way to discard a decoded prefix of it) so NextBatch can decode whole
// records without per-byte dispatch. *bufio.Reader implements it, as does the
// daemon's pooled frame stream; NewReader wraps any other io.Reader in a
// *bufio.Reader.
type ByteScanner interface {
	io.Reader
	io.ByteReader
	Buffered() int
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// NextBatch decodes as many whole records as fit into c: point records (and
// the wire-legal EpochMark control record) become chunk slots, range records
// land in the side table behind a RangeRef slot whose Addr is the side-table
// index. It returns the number of slots appended.
//
// A batch ends when the chunk runs out of event or range capacity, at a clean
// end of stream (io.EOF may accompany a nonzero slot count), or — once at
// least one record has been decoded — when the input has no further bytes
// buffered, so batch boundaries track the cadence of arriving frames rather
// than blocking on the network mid-batch. NextBatch must not be mixed with
// Next on the same Reader (a pending range expansion would be dropped);
// mixing with NextRecord is fine.
func (r *Reader) NextBatch(c *event.Chunk) (int, error) {
	appended := 0
	r.batchCtl = false
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
			m, used := r.decodeWindow(win, c, appended > 0)
			if used > 0 {
				r.br.Discard(used)
			}
			appended += m
			if m > 0 {
				continue
			}
			// The leading record crosses the window edge or fails to
			// validate: resolve it byte-at-a-time below.
		}
		rec, err := r.NextRecord()
		if err != nil {
			return appended, err
		}
		if rec.IsRange {
			idx := c.AppendRange(rec.Range)
			c.Append(event.Access{Addr: uint64(idx), Kind: event.RangeRef})
		} else {
			if rec.Access.Kind > event.Remove {
				r.batchCtl = true
			}
			c.Append(rec.Access)
		}
		appended++
	}
}

// BatchControl reports whether the batch decoded by the most recent NextBatch
// call contained any control record (a kind beyond Remove — in wire traces
// that means EpochMark or a kind the consumer will reject). Callers feeding
// pure data batches to a bulk-ingest seam can skip per-record inspection
// when it reports false.
func (r *Reader) BatchControl() bool { return r.batchCtl }

// decodeWindow decodes whole records from win into c until the window or the
// chunk runs out, or a record cannot be decoded from the bytes in hand. It
// returns the slots appended and the bytes consumed.
//
// Point records — the bulk of every trace — are decoded by the fused loop
// body itself: the chunk cursor and the delta-decode context live in locals,
// each field takes one compare on the single-byte-varint fast path, and the
// record is written straight into its chunk slot. Only range records
// (sliceRange) call out. Like the helpers the loop commits only fully valid
// records, so the byte-at-a-time decoder remains the single source of
// blocking and error text.
//
// contd reports whether the calling NextBatch has already appended to c: the
// duplicate filter may then fold a leading duplicate read into the chunk's
// tail slot. It must be false for slots that predate the call, so a caller
// can never receive Rep bumps inside a chunk NextBatch claims it left alone.
func (r *Reader) decodeWindow(win []byte, c *event.Chunk, contd bool) (slots, used int) {
	evs := c.Events[:cap(c.Events)]
	ne := len(c.Events)
	prevAddr, prevTS := r.prev.Addr, r.prev.TS
	lastPoint := -1 // chunk index of the newest fast-path point record
	lastSlot := -1  // chunk index of the newest slot appended this batch
	if contd {
		lastSlot = ne - 1
	}
	points := uint64(0) // record count to fold into r.n on exit
	for used < len(win) && ne < len(evs) {
		b := win[used:]
		k := event.Kind(b[0])
		if k == event.RangeRef {
			// Ranges decode against Reader state, so sync the local
			// cursor and delta context around the call.
			c.Events = evs[:ne]
			r.prev.Addr, r.prev.TS = prevAddr, prevTS
			r.n += points
			points = 0
			if c.RangesFull() {
				break
			}
			n := r.sliceRange(b, c)
			ne = len(c.Events)
			prevAddr, prevTS = r.prev.Addr, r.prev.TS
			if n == 0 {
				break
			}
			lastSlot = ne - 1
			used += n
			slots++
			continue
		}
		if !pointKind(k) {
			break
		}
		// Field order: zigzag dAddr, zigzag dTS, then uvarint Loc, Var,
		// CtxID, IterVec, Thread, then the flags byte. Continuation bytes
		// decode inline too — multi-byte Loc and address jumps are routine —
		// with binary.Uvarint's exact overflow rules, so the fast path never
		// accepts bytes the slow path would reject.
		var fv [7]uint64
		pos := 1
		for f := 0; f < 7; f++ {
			if pos >= len(b) {
				pos = 0
				break
			}
			v := uint64(b[pos])
			pos++
			if v >= 0x80 {
				v &= 0x7f
				shift := 7
				for {
					if pos >= len(b) || shift > 63 {
						pos = 0
						break
					}
					cb := b[pos]
					pos++
					if cb < 0x80 {
						if shift == 63 && cb > 1 {
							pos = 0 // overflows 64 bits
							break
						}
						v |= uint64(cb) << shift
						break
					}
					v |= uint64(cb&0x7f) << shift
					shift += 7
				}
				if pos == 0 {
					break
				}
			}
			fv[f] = v
		}
		if pos == 0 || pos >= len(b) {
			break
		}
		fb := b[pos]
		pos++
		if event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
			break
		}
		prevAddr = uint64(int64(prevAddr) + (int64(fv[0]>>1) ^ -int64(fv[0]&1)))
		prevTS = uint64(int64(prevTS) + (int64(fv[1]>>1) ^ -int64(fv[1]&1)))
		if k == event.Read && lastSlot >= 0 {
			// Duplicate filter, mirroring the producer's: a read identical
			// to the chunk's previous slot folds into that slot's repetition
			// count instead of occupying a slot and an engine dispatch of
			// its own. The engine replays the multiplicity, so the profile
			// stays byte-identical to the uncollapsed stream; an EpochMark
			// or range slot in between blocks the merge, which keeps epoch
			// attribution and ordering exact.
			if last := &evs[lastSlot]; last.Kind == event.Read && last.Rep != event.MaxRep &&
				last.Addr == prevAddr && last.TS == prevTS &&
				last.Loc == loc.SourceLoc(fv[2]) && last.Var == loc.VarID(fv[3]) &&
				last.CtxID == uint32(fv[4]) && last.IterVec == fv[5] &&
				last.Thread == int32(fv[6]) && last.Flags == event.Flags(fb) {
				last.Rep++
				points++
				used += pos
				continue
			}
		}
		evs[ne] = event.Access{
			Addr:    prevAddr,
			TS:      prevTS,
			Loc:     loc.SourceLoc(fv[2]),
			Var:     loc.VarID(fv[3]),
			CtxID:   uint32(fv[4]),
			IterVec: fv[5],
			Thread:  int32(fv[6]),
			Kind:    k,
			Flags:   event.Flags(fb),
		}
		if k > event.Remove {
			r.batchCtl = true
		}
		lastPoint = ne
		lastSlot = ne
		ne++
		points++
		used += pos
		slots++
	}
	// Commit the local decode context. NextRecord keeps the whole previous
	// point record in r.prev (though only Addr and TS feed the deltas), so
	// restore that exact state: the newest point record wholesale, then the
	// final delta context on top (a trailing range only advances Addr/TS).
	if lastPoint >= 0 {
		r.prev = evs[lastPoint]
	}
	r.prev.Addr, r.prev.TS = prevAddr, prevTS
	r.n += points
	c.Events = evs[:ne]
	return slots, used
}

// sliceUvarint is binary.Uvarint with a fast path for the single-byte
// varints that dominate DDT1 records. n == 0 covers both truncation and
// overflow; the caller defers either to the byte-at-a-time decoder.
func sliceUvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0
	}
	return v, n
}

func sliceZigzag(b []byte) (int64, int) {
	u, n := sliceUvarint(b)
	return int64(u>>1) ^ -int64(u&1), n
}

// sliceRange decodes one range record (RangeRef kind byte included) from the
// head of b, installing it in the chunk's side table behind a RangeRef slot.
// Like slicePoint it commits only fully valid records and returns 0 for
// anything else.
func (r *Reader) sliceRange(b []byte, c *event.Chunk) int {
	if len(b) < 2 {
		return 0
	}
	var rg event.Range
	if k := event.Kind(b[1]); k != event.Read && k != event.Write {
		return 0
	}
	rg.Kind = event.Kind(b[1])
	pos := 2
	dBase, n := sliceZigzag(b[pos:])
	if n == 0 {
		return 0
	}
	pos += n
	stride, n := sliceZigzag(b[pos:])
	if n == 0 {
		return 0
	}
	pos += n
	cnt, n := sliceUvarint(b[pos:])
	if n == 0 {
		return 0
	}
	pos += n
	if cnt < 2 || cnt > maxWireRangeCount {
		return 0
	}
	rg.Base = uint64(int64(r.prev.Addr) + dBase)
	rg.Stride = uint64(stride)
	rg.Count = uint32(cnt)
	if rangeWraps(rg.Base, stride, rg.Count) {
		return 0
	}
	dTS, n := sliceZigzag(b[pos:])
	if n == 0 {
		return 0
	}
	pos += n
	rg.TS = uint64(int64(r.prev.TS) + dTS)
	var vals [6]uint64
	for i := range vals {
		v, vn := sliceUvarint(b[pos:])
		if vn == 0 {
			return 0
		}
		vals[i] = v
		pos += vn
	}
	if pos >= len(b) {
		return 0
	}
	fb := b[pos]
	pos++
	if event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
		return 0
	}
	rg.Loc = loc.SourceLoc(vals[0])
	rg.Var = loc.VarID(vals[1])
	rg.CtxID = uint32(vals[2])
	rg.IterVec = vals[3]
	rg.IterDelta = vals[4]
	rg.Thread = int32(vals[5])
	rg.Flags = event.Flags(fb)
	idx := c.AppendRange(rg)
	c.Append(event.Access{Addr: uint64(idx), Kind: event.RangeRef})
	r.prev.Addr = rg.Last()
	r.prev.TS = rg.TS
	r.n += uint64(rg.Count)
	return pos
}
