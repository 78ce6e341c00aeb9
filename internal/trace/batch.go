package trace

// Batched decode: NextBatch turns a stretch of DDT2 bytes into one
// event.Chunk — point records as chunk slots, range records in the chunk's
// side table behind RangeRef slots — which is exactly the layout the pipeline
// producers build in memory. A remote session can therefore hand decoded
// batches to a pipeline's bulk-ingest seam with no per-record interface
// dispatch and no intermediate copies.
//
// There is one decoder, and it reads slices. Records that lie whole inside
// the input's buffered window (bufio's, clipped to the current frame by a
// FrameReader) are decoded straight out of the window: data and stamp
// records by the points kernel, every other record by record. A record the
// window ends inside is copied into the Reader's carry, which ReadByte fills
// across refills and frame headers until record can decode it; so the stream
// is read a byte at a time only inside a record cut by an edge. record checks
// fields in stream order and commits a record only once it is whole and
// valid, so where the bytes stop — the window's edge, a frame's, the
// stream's — changes no result and no error text.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// ByteScanner is the input surface Reader decodes from: a window over the
// already-buffered bytes (and a way to discard a decoded prefix of it) that
// NextBatch decodes whole records from, and byte reads that fill the carry
// when a record crosses the window's edge. *bufio.Reader implements it, as
// does FrameReader; NewReader wraps any other io.Reader in a *bufio.Reader.
type ByteScanner interface {
	io.Reader
	io.ByteReader
	Buffered() int
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// errShort is record's answer when the bytes in hand end inside the record.
var errShort = errors.New("trace: record cut short")

// errOverflow is the text binary.ReadUvarint gives a varint wider than 64
// bits; the decoder reports the same overflow in the same words.
var errOverflow = errors.New("binary: varint overflows a 64-bit integer")

// NextBatch decodes as many whole records as fit into c: data records become
// chunk slots, range records land in the side table behind a RangeRef slot
// whose Addr is the side-table index. It returns the number of slots appended.
//
// A batch ends when the chunk runs out of event or range capacity, at a clean
// end of stream (io.EOF), or — once at least one record has been decoded —
// when the input has no further bytes buffered, so batch boundaries track the
// cadence of arriving frames rather than blocking on the network mid-batch.
// A stream that ends inside a record returns an error wrapping
// io.ErrUnexpectedEOF; corrupt bytes return an error naming the record.
func (r *Reader) NextBatch(c *event.Chunk) (int, error) {
	start := len(c.Events)
	for !c.Full() && !c.RangesFull() {
		k := r.br.Buffered()
		if k == 0 && len(c.Events) > start {
			break
		}
		var head []byte // the leading bytes of a record the window ends inside
		if k > 0 {
			win, _ := r.br.Peek(k)
			switch used, err := r.decodeWindow(win, c); err {
			case nil:
				r.br.Discard(used)
				continue
			case errShort:
				head = append(r.carry[:0], win[used:]...)
				r.br.Discard(k)
			default:
				return len(c.Events) - start, err
			}
		}
		if err := r.finish(head, c); err != nil {
			return len(c.Events) - start, err
		}
	}
	return len(c.Events) - start, nil
}

// finish decodes the record that starts with head — an empty head is a record
// boundary — reading its remaining bytes one at a time into the carry. A read
// error at a boundary ends the stream as it came (a bare io.EOF is a clean
// end); inside a record it is a truncation.
func (r *Reader) finish(head []byte, c *event.Chunk) error {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			if len(head) == 0 {
				return err
			}
			return r.truncated(err)
		}
		head = append(head, b)
		if _, err := r.record(head, c); err != errShort {
			return err
		}
	}
}

// decodeWindow decodes whole records from win into c until the window or the
// chunk runs out, or a range record meets a full side table, and returns the
// bytes consumed. The points kernel decodes the data and stamp records; each
// record it stops at goes through record before the kernel resumes. A record
// that fails validation is the error; one the window ends inside is errShort,
// with used at its first byte. One data record is one slot: a repeated read
// reaches the engine as it was sent, and its run kernel folds it there.
func (r *Reader) decodeWindow(win []byte, c *event.Chunk) (used int, err error) {
	for {
		n := len(c.Events)
		m, u := r.points(win[used:], c.Events[n:cap(c.Events)])
		c.Events = c.Events[:n+m]
		used += u
		if used == len(win) || c.Full() || win[used] == recRange && c.RangesFull() {
			return used, nil
		}
		u, err = r.record(win[used:], c)
		if err != nil {
			return used, err
		}
		used += u
	}
}

// record decodes the record of any type at the head of b, appends its slot to
// c (which has room for one, and for a range) if it carries events, and
// returns its length. It checks the fields in stream order, refusing the
// first that is invalid; bytes that end before the record does, with every
// field in hand valid, are errShort. Nothing — site table, stream context,
// Count — changes until the record is whole and valid.
func (r *Reader) record(b []byte, c *event.Chunk) (int, error) {
	f := cursor{r: r, b: b, pos: 1}
	switch b0 := b[0]; {
	case b0&1 == 0:
		if len(b) < 2 {
			return 0, errShort
		}
		slot := uint(b0)>>1 | uint(b[1])<<7
		if slot >= siteSlots {
			return 0, fmt.Errorf("trace: event %d: site slot %d out of range", r.n, slot)
		}
		s := &r.sites[slot]
		if s.key.kf == 0 {
			return 0, fmt.Errorf("trace: event %d: undefined site slot %d", r.n, slot)
		}
		f.pos = 2
		dAddr, err := f.zigzag()
		if err != nil {
			return 0, err
		}
		dIter, err := f.zigzag()
		if err != nil {
			return 0, err
		}
		s.last += uint64(dAddr)
		r.prevAddr = s.last
		r.prevIter += uint64(dIter)
		r.n++
		a := event.Access{Addr: s.last, TS: r.ts, IterVec: r.prevIter}
		s.key.fill(&a)
		c.Append(a)
	case b0 == recDefine:
		if len(b) < 4 {
			return 0, errShort
		}
		slot, kind := uint(b[1])|uint(b[2])<<8, event.Kind(b[3])
		if slot >= siteSlots {
			return 0, fmt.Errorf("trace: event %d: site slot %d out of range", r.n, slot)
		}
		if !dataKind(kind) {
			return 0, fmt.Errorf("trace: event %d: invalid site kind %d", r.n, kind)
		}
		f.pos = 4
		var vals [4]uint64
		flags, err := f.fields(vals[:])
		if err != nil {
			return 0, err
		}
		if err := r.tooWide("thread", vals[3], event.MaxThread); err != nil {
			return 0, err
		}
		r.bind(slot, keyOf(&event.Access{
			Loc: loc.SourceLoc(vals[0]), Var: loc.VarID(vals[1]), CtxID: uint32(vals[2]), Thread: int32(vals[3]),
			Kind: kind, Flags: flags,
		}), r.prevAddr)
	case b0 == recStamp:
		d, err := f.zigzag()
		if err != nil {
			return 0, err
		}
		ts := r.ts + uint64(d)
		if err := r.tooWide("stamp", ts, event.MaxTS); err != nil {
			return 0, err
		}
		r.ts = ts
	case b0 == recRange:
		rg, err := f.rangeBody()
		if err != nil {
			return 0, err
		}
		r.prevAddr, r.prevIter, r.ts = rg.Last(), lastIter(&rg), rg.TS
		r.n += uint64(rg.Count)
		c.Append(event.Access{Addr: uint64(c.AppendRange(rg)), Kind: event.RangeRef})
	case b0 == recRetired:
		return 0, fmt.Errorf("trace: event %d: record type 5 is the retired control record: a stream carries accesses only", r.n)
	default:
		return 0, fmt.Errorf("trace: event %d: invalid record type %d", r.n, b0)
	}
	return f.pos, nil
}

// cursor reads one record's fields from b, from pos on.
type cursor struct {
	r   *Reader
	b   []byte
	pos int
}

func (f *cursor) byte() (byte, error) {
	if f.pos == len(f.b) {
		return 0, errShort
	}
	f.pos++
	return f.b[f.pos-1], nil
}

// uvarint reads a varint under binary.ReadUvarint's rules: ten bytes that
// have not ended it are an overflow, whatever follows them.
func (f *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(f.b[f.pos:])
	switch {
	case n > 0:
		f.pos += n
		return v, nil
	case n == 0 && len(f.b)-f.pos < binary.MaxVarintLen64:
		return 0, errShort
	}
	return 0, f.r.truncated(errOverflow)
}

func (f *cursor) zigzag() (int64, error) {
	u, err := f.uvarint()
	return unzig(u), err
}

// fields reads the uvarint fields of a record into vals and the flags byte
// that follows them, refusing undefined bits.
func (f *cursor) fields(vals []uint64) (event.Flags, error) {
	for i := range vals {
		v, err := f.uvarint()
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	fb, err := f.byte()
	if err == nil && event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
		err = fmt.Errorf("trace: event %d: undefined flag bits %#x", f.r.n, fb)
	}
	return event.Flags(fb), err
}

// points is decodeWindow's kernel: it decodes the leading data and stamp
// records of win into evs, and returns the events written and the bytes
// used. It stops at any other record type, at a record not whole in win or
// failing validation, and when evs is full. It makes no call, so the window
// and chunk cursors and the stream context stay in registers; a site is one
// table load, each delta one compare on the single-byte varint path, and the
// event is written straight into its slot. Deltas are decoded with
// binary.Uvarint's exact overflow rules, so the kernel never accepts bytes
// record would refuse.
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
