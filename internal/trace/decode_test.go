package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"testing/iotest"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// oracleReader is the DDT2 reference decoder NextBatch is held to, the mirror
// of oracleWriter: one record at a time, a byte at a time through
// io.ByteReader, each field checked as soon as it is read. Its error texts
// are the decoder's.
type oracleReader struct {
	br                        io.ByteReader
	prevAddr, prevIter, ts, n uint64
	siteTable
}

// newOracleReader checks the stream magic as NewReader does.
func newOracleReader(r io.Reader) (*oracleReader, error) {
	br, ok := r.(io.ByteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var m [len(magic)]byte
	for i := range m {
		b, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: reading magic: %w", noEOF(err))
		}
		m[i] = b
	}
	switch string(m[:]) {
	case magic:
		return &oracleReader{br: br}, nil
	case retiredMagic:
		return nil, ErrDDT1
	}
	return nil, fmt.Errorf("trace: bad magic %q", m[:])
}

// wireRec is one record that carries events: a point access or a range.
type wireRec struct {
	a       event.Access
	r       event.Range
	isRange bool
}

// next decodes up to and including the next record that carries events.
// Define and stamp records on the way take effect. It returns io.EOF at a
// clean end of stream (a record boundary); a stream that ends inside a record
// returns an error wrapping io.ErrUnexpectedEOF.
func (r *oracleReader) next() (wireRec, error) {
	for {
		rec, events, err := r.step()
		if events || err != nil {
			return rec, err
		}
	}
}

// step decodes one record of any type and reports whether it carries events.
// It changes the state only once the whole record has been read and found
// valid; io.EOF in place of a record's first byte is returned bare.
func (r *oracleReader) step() (rec wireRec, events bool, err error) {
	b0, err := r.br.ReadByte()
	if err != nil {
		return rec, false, err
	}
	switch {
	case b0&1 == 0:
		rec.a, err = r.readData(b0)
	case b0 == recDefine:
		return rec, false, r.readDefine()
	case b0 == recStamp:
		d, err := r.getZig()
		if err != nil {
			return rec, false, err
		}
		ts := r.ts + uint64(d)
		if err := r.tooWide("stamp", ts, event.MaxTS); err != nil {
			return rec, false, err
		}
		r.ts = ts
		return rec, false, nil
	case b0 == recRetired:
		err = fmt.Errorf("trace: event %d: record type 5 is the retired control record: a stream carries accesses only", r.n)
	case b0 == recRange:
		rec.r, err = r.readRange()
		rec.isRange = true
	default:
		err = fmt.Errorf("trace: event %d: invalid record type %d", r.n, b0)
	}
	return rec, err == nil, err
}

func (r *oracleReader) tooWide(field string, v, limit uint64) error {
	if v <= limit {
		return nil
	}
	return fmt.Errorf("trace: event %d: %s %d is past %d, the widest a store slot keeps", r.n, field, v, limit)
}

func (r *oracleReader) getByte() (byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	return b, nil
}

func (r *oracleReader) get() (uint64, error) {
	v, err := binary.ReadUvarint(r.br)
	if err != nil {
		return 0, fmt.Errorf("trace: event %d truncated: %w", r.n, noEOF(err))
	}
	return v, nil
}

func (r *oracleReader) getZig() (int64, error) {
	u, err := r.get()
	return int64(u>>1) ^ -int64(u&1), err
}

// getFields reads the uvarint fields of a record into vals and the flags
// byte that follows them, refusing undefined bits.
func (r *oracleReader) getFields(vals []uint64) (event.Flags, error) {
	for i := range vals {
		v, err := r.get()
		if err != nil {
			return 0, err
		}
		vals[i] = v
	}
	fb, err := r.getByte()
	if err == nil && event.Flags(fb)&^(event.FlagReduction|event.FlagInduction) != 0 {
		err = fmt.Errorf("trace: event %d: undefined flag bits %#x", r.n, fb)
	}
	return event.Flags(fb), err
}

// readData decodes the rest of a data record whose first header byte is b0.
func (r *oracleReader) readData(b0 byte) (a event.Access, err error) {
	b1, err := r.getByte()
	if err != nil {
		return a, err
	}
	slot := uint(b0)>>1 | uint(b1)<<7
	if slot >= siteSlots {
		return a, fmt.Errorf("trace: event %d: site slot %d out of range", r.n, slot)
	}
	s := &r.sites[slot]
	if s.key.kf == 0 {
		return a, fmt.Errorf("trace: event %d: undefined site slot %d", r.n, slot)
	}
	dAddr, err := r.getZig()
	if err != nil {
		return a, err
	}
	dIter, err := r.getZig()
	if err != nil {
		return a, err
	}
	s.last += uint64(dAddr)
	r.prevAddr = s.last
	r.prevIter += uint64(dIter)
	r.n++
	a = event.Access{Addr: s.last, TS: r.ts, IterVec: r.prevIter}
	s.key.fill(&a)
	return a, nil
}

// readDefine decodes the body of a define record and binds its slot.
func (r *oracleReader) readDefine() error {
	var hdr [3]byte
	for i := range hdr {
		b, err := r.getByte()
		if err != nil {
			return err
		}
		hdr[i] = b
	}
	slot := uint(hdr[0]) | uint(hdr[1])<<8
	if slot >= siteSlots {
		return fmt.Errorf("trace: event %d: site slot %d out of range", r.n, slot)
	}
	if !dataKind(event.Kind(hdr[2])) {
		return fmt.Errorf("trace: event %d: invalid site kind %d", r.n, hdr[2])
	}
	var vals [4]uint64
	flags, err := r.getFields(vals[:])
	if err != nil {
		return err
	}
	if err := r.tooWide("thread", vals[3], event.MaxThread); err != nil {
		return err
	}
	r.bind(slot, keyOf(&event.Access{
		Loc: loc.SourceLoc(vals[0]), Var: loc.VarID(vals[1]), CtxID: uint32(vals[2]), Thread: int32(vals[3]),
		Kind: event.Kind(hdr[2]), Flags: flags,
	}), r.prevAddr)
	return nil
}

// readRange decodes the body of a range record and commits the run to the
// stream context.
func (r *oracleReader) readRange() (event.Range, error) {
	var rg event.Range
	kb, err := r.getByte()
	if err != nil {
		return rg, err
	}
	if k := event.Kind(kb); k != event.Read && k != event.Write {
		return rg, fmt.Errorf("trace: event %d: invalid range element kind %d", r.n, kb)
	}
	rg.Kind = event.Kind(kb)
	dBase, err := r.getZig()
	if err != nil {
		return rg, err
	}
	rg.Base = r.prevAddr + uint64(dBase)
	stride, err := r.getZig()
	if err != nil {
		return rg, err
	}
	rg.Stride = uint64(stride)
	cnt, err := r.get()
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
	dTS, err := r.getZig()
	if err != nil {
		return rg, err
	}
	rg.TS = r.ts + uint64(dTS)
	var vals [6]uint64
	if rg.Flags, err = r.getFields(vals[:]); err != nil {
		return rg, err
	}
	rg.Loc, rg.Var, rg.CtxID = loc.SourceLoc(vals[0]), loc.VarID(vals[1]), uint32(vals[2])
	rg.IterVec, rg.IterDelta = vals[3], vals[4]
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

// decoding is what one decode of a stream made of it: the records that carry
// events, Count, the define counts and how the stream ended. short is set
// when a batch ended short of a full chunk and a later one still appended.
type decoding struct {
	recs               []wireRec
	n                  uint64
	defines, redefines uint64
	err                error
	short              bool
}

// oracleDecode decodes a stream with the oracle.
func oracleDecode(r io.Reader) (d decoding) {
	or, err := newOracleReader(r)
	if err != nil {
		return decoding{err: err}
	}
	for d.err == nil {
		var rec wireRec
		if rec, d.err = or.next(); d.err == nil {
			d.recs = append(d.recs, rec)
		}
	}
	d.n = or.n
	d.defines, d.redefines = or.SiteDefines()
	return d
}

// chunks keeps the decode chunks batchDecode reuses.
var chunks = sync.Pool{New: func() any { return event.NewChunk() }}

// batchDecode decodes a stream with NextBatch and flattens its chunks back to
// records: a RangeRef slot pulls its range from the side table. A batch
// past the chunk's capacity ends the decode with an error saying so, and a
// clean end must stay one: the call after io.EOF returns io.EOF again.
func batchDecode(r io.Reader) (d decoding) {
	tr, err := NewReader(r)
	if err != nil {
		return decoding{err: err}
	}
	c := chunks.Get().(*event.Chunk)
	defer chunks.Put(c)
	ended := false // a batch has ended short of a full chunk
	for d.err == nil {
		c.Reset()
		var m int
		m, d.err = tr.NextBatch(c)
		if m != len(c.Events) || m == 0 && d.err == nil {
			panic(fmt.Sprintf("NextBatch reported %d slots, appended %d, error %v", m, len(c.Events), d.err))
		}
		if len(c.Events) > event.ChunkSize || len(c.Ranges) > event.MaxRangesPerChunk {
			d.err = fmt.Errorf("a batch holds %d slots and %d ranges, past the chunk's capacity", len(c.Events), len(c.Ranges))
			break
		}
		d.short = d.short || ended && m > 0
		ended = ended || !c.Full() && !c.RangesFull()
		for _, a := range c.Events {
			if a.Kind == event.RangeRef {
				d.recs = append(d.recs, wireRec{r: c.Ranges[a.Addr], isRange: true})
			} else {
				d.recs = append(d.recs, wireRec{a: a})
			}
		}
	}
	if d.err == io.EOF {
		c.Reset()
		if m, err := tr.NextBatch(c); m != 0 || err != io.EOF {
			d.err = fmt.Errorf("after io.EOF, NextBatch appends %d slots and returns %v", m, err)
		}
	}
	d.n = tr.Count()
	d.defines, d.redefines = tr.SiteDefines()
	return d
}

// events lists a decoding's events in stream order, a range's elements in
// its place.
func (d decoding) events() []event.Access {
	var out []event.Access
	for _, rec := range d.recs {
		if !rec.isRange {
			out = append(out, rec.a)
			continue
		}
		for j := uint32(0); j < rec.r.Count; j++ {
			out = append(out, rec.r.At(j))
		}
	}
	return out
}

// written is the decoding a stream of recs written with the given define
// counts must have: every record, their events counted, a clean end.
func written(recs []wireRec, defines, redefines uint64) decoding {
	d := decoding{recs: recs, defines: defines, redefines: redefines, err: io.EOF}
	for _, rec := range recs {
		if rec.isRange {
			d.n += uint64(rec.r.Count)
		} else {
			d.n++
		}
	}
	return d
}

// replay decodes a whole stream with NextBatch into its events; a clean end
// is no error.
func replay(r io.Reader) ([]event.Access, error) {
	d := batchDecode(r)
	if d.err == io.EOF {
		d.err = nil
	}
	return d.events(), d.err
}

// encode writes recs through a Writer, a record at a time, and returns the
// bytes and the Writer.
func encode(recs []wireRec) ([]byte, *Writer, error) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, rec := range recs {
		if rec.isRange {
			w.Range(rec.r)
		} else {
			w.Access(rec.a)
		}
	}
	err := w.Close()
	return buf.Bytes(), w, err
}

// stream is encode's bytes for recs that the Writer takes.
func stream(recs []wireRec) []byte {
	b, _, err := encode(recs)
	if err != nil {
		panic(err)
	}
	return b
}

// points makes a record of each event.
func points(evs []event.Access) []wireRec {
	recs := make([]wireRec, len(evs))
	for i, a := range evs {
		recs[i].a = a
	}
	return recs
}

// sameEnd reports whether two decode terminations are equivalent: both clean
// (io.EOF) or both the same error text.
func sameEnd(a, b error) bool {
	if a == io.EOF || b == io.EOF {
		return a == b
	}
	return a != nil && b != nil && a.Error() == b.Error()
}

// sameDecoding requires got to be want: the same records, Count, define
// counts and end.
func sameDecoding(t *testing.T, name string, want, got decoding) {
	t.Helper()
	if !sameEnd(want.err, got.err) {
		t.Fatalf("%s: the oracle ends %v, NextBatch %v", name, want.err, got.err)
	}
	if got.n != want.n || got.defines != want.defines || got.redefines != want.redefines {
		t.Fatalf("%s: Count, defines, redefines: the oracle %d, %d, %d; NextBatch %d, %d, %d",
			name, want.n, want.defines, want.redefines, got.n, got.defines, got.redefines)
	}
	if len(got.recs) != len(want.recs) {
		t.Fatalf("%s: the oracle decodes %d records, NextBatch %d", name, len(want.recs), len(got.recs))
	}
	for i := range want.recs {
		if got.recs[i] != want.recs[i] {
			t.Fatalf("%s: record %d:\noracle    %+v\nNextBatch %+v", name, i, want.recs[i], got.recs[i])
		}
	}
}

// frames is a ByteScanner over a stream that arrives in pieces: the window
// never reaches past the current piece, and a byte read at its end moves on
// to the next.
type frames struct {
	rest [][]byte
	cur  []byte
}

func (f *frames) fill() bool {
	for len(f.cur) == 0 {
		if len(f.rest) == 0 {
			return false
		}
		f.cur, f.rest = f.rest[0], f.rest[1:]
	}
	return true
}

func (f *frames) ReadByte() (byte, error) {
	if !f.fill() {
		return 0, io.EOF
	}
	b := f.cur[0]
	f.cur = f.cur[1:]
	return b, nil
}

func (f *frames) Read(p []byte) (int, error) {
	if !f.fill() {
		return 0, io.EOF
	}
	n := copy(p, f.cur)
	f.cur = f.cur[n:]
	return n, nil
}

func (f *frames) Buffered() int { return len(f.cur) }

func (f *frames) Peek(n int) ([]byte, error) { return f.cur[:min(n, len(f.cur))], nil }

func (f *frames) Discard(n int) (int, error) {
	n = min(n, len(f.cur))
	f.cur = f.cur[n:]
	return n, nil
}

// reframeMax is the frame cap the framed shapes read under: reframe's
// longest frames exceed it, so oversized frames are part of them.
const reframeMax = 256

// reframe cuts data into frames whose lengths a generator seeded by seed
// picks — mostly 1–16 bytes, so frames split records, and a quarter 120–269,
// so two-byte headers and frames past reframeMax appear — then ends the
// stream with the terminator, without it, or three bytes short of it.
func reframe(data []byte, seed uint8) []byte {
	var out bytes.Buffer
	fw := NewFrameWriter(&out)
	x := uint32(seed) | 0x100
	for len(data) > 0 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		n := 1 + int(x%16)
		if x&0x300 == 0 {
			n = 120 + int(x%150)
		}
		n = min(n, len(data))
		fw.Write(data[:n])
		data = data[n:]
	}
	fw.Close()
	b := out.Bytes()
	switch seed % 3 {
	case 1:
		b = b[:len(b)-1]
	case 2:
		b = b[:max(len(b)-3, 0)]
	}
	return b
}

// shape is one way a stream reaches NextBatch, selected by index: a window
// over the whole stream, 16-byte windows that split records, an in-memory
// reader (NewReader supplies a 64 KiB window), a source that delivers one
// byte per Read (no record is ever whole in the window: every record goes
// through the carry), two frames meeting at edge, and — from index 5 on —
// the stream re-framed at the lengths reframe seed index-5 picks, read
// through NewReader(NewFrameReader(br)), br a 16-byte bufio.Reader over the
// framed bytes or over a source that delivers them one byte per Read, so
// headers and records split across refills.
//
// It returns the shape's name, NextBatch's input, and the oracle's: the same
// bytes, or for a framed shape the framed bytes through a FrameReader read a
// byte at a time. full reports whether the window holds the whole stream, so
// that only the last batch may end short of a full chunk.
func shape(i int, data []byte, edge int) (name string, batch, oracle io.Reader, full bool) {
	src := bytes.NewReader(data)
	switch i {
	case 0:
		return "whole", bufio.NewReaderSize(src, max(len(data), 16)), bytes.NewReader(data), true
	case 1:
		return "tiny-window", bufio.NewReaderSize(src, 16), bytes.NewReader(data), false
	case 2:
		return "in-memory", src, bytes.NewReader(data), len(data) <= 1<<16
	case 3:
		return "one-byte", iotest.OneByteReader(src), bytes.NewReader(data), false
	case 4:
		edge = min(max(edge, 0), len(data))
		return fmt.Sprintf("two-frames/%d", edge), &frames{rest: [][]byte{data[:edge], data[edge:]}}, bytes.NewReader(data), false
	}
	seed := uint8(i - 5)
	fb := reframe(data, seed)
	var fsrc io.Reader = bytes.NewReader(fb)
	if seed/3%2 == 0 {
		fsrc = iotest.OneByteReader(fsrc)
	}
	return fmt.Sprintf("framed/%d", seed), NewFrameReader(bufio.NewReaderSize(fsrc, 16), reframeMax),
		NewFrameReader(bytes.NewReader(fb), reframeMax), false
}

// checkInvariants holds what the oracle decoded to the properties every
// decode has: Count is the records' events, ranges are in bounds and do not
// wrap, and the records re-encode and decode back to themselves.
func checkInvariants(t *testing.T, name string, d decoding) {
	t.Helper()
	if n := written(d.recs, 0, 0).n; d.n != n {
		t.Fatalf("%s: Count %d, the records hold %d events", name, d.n, n)
	}
	for i, rec := range d.recs {
		if rg := rec.r; rec.isRange && (rg.Count < 2 || rg.Count > maxWireRangeCount || rangeWraps(rg.Base, int64(rg.Stride), rg.Count)) {
			t.Fatalf("%s: record %d is a range out of bounds: base %#x stride %d count %d", name, i, rg.Base, int64(rg.Stride), rg.Count)
		}
	}
	b, _, err := encode(d.recs)
	if err != nil {
		t.Fatalf("%s: the records do not re-encode: %v", name, err)
	}
	back := batchDecode(bytes.NewReader(b))
	if back.err != io.EOF || len(back.recs) != len(d.recs) {
		t.Fatalf("%s: %d records re-encode and decode back to %d: %v", name, len(d.recs), len(back.recs), back.err)
	}
	for i := range d.recs {
		if back.recs[i] != d.recs[i] {
			t.Fatalf("%s: record %d re-encodes as %+v, was %+v", name, i, back.recs[i], d.recs[i])
		}
	}
}

// decodeRow is one stream of the harness.
type decodeRow struct {
	name  string
	data  []byte
	edge  int       // where the two-frames shape's first frame ends
	input []wireRec // the Writer's input, for a row built from it
	// The Writer's define counts, for a row built from its input.
	defines, redefines uint64
	want               string // the error the stream ends with, when the row names it
	cut                bool   // valid records cut short: a clean end or a truncation
	shape              int    // the shapes run: every index below it
}

// row is a stream with its frame edge in the middle, over the unframed shapes
// and reframe seeds 0–5: each of the three stream endings from both sources.
func row(name string, data []byte) decodeRow {
	return decodeRow{name: name, data: data, edge: len(data) / 2, shape: 5 + 6}
}

// input is a row of the Writer's bytes for recs; the Writer must count their
// events.
func input(tb testing.TB, name string, recs []wireRec) decodeRow {
	b, w, err := encode(recs)
	if err != nil {
		tb.Fatal(err)
	}
	r := row(name, b)
	r.input = recs
	r.defines, r.redefines = w.SiteDefines()
	if n := written(recs, 0, 0).n; w.Count() != n {
		tb.Fatalf("%s: the Writer counts %d events, its input holds %d", name, w.Count(), n)
	}
	return r
}

// checkRow is the comparator: it decodes the row's stream with the oracle,
// holds that to the row's expectations and invariants, and holds NextBatch
// to the oracle through every shape. It returns how each shape's decode ended.
func checkRow(t *testing.T, r decodeRow) []error {
	t.Helper()
	want := oracleDecode(bytes.NewReader(r.data))
	switch {
	case r.want != "" && (want.err == nil || want.err.Error() != r.want):
		t.Fatalf("the oracle ends %v, want %q", want.err, r.want)
	case r.input != nil && want.err != io.EOF:
		t.Fatalf("the Writer's stream ends %v", want.err)
	case r.cut && want.err != io.EOF && !errors.Is(want.err, io.ErrUnexpectedEOF):
		t.Fatalf("a cut stream ends %v, want a clean end or a truncation", want.err)
	}
	if r.input != nil {
		sameDecoding(t, "the Writer's input", written(r.input, r.defines, r.redefines), want)
	}
	checkInvariants(t, "oracle", want)
	var ends []error
	for i := 0; i < r.shape; i++ {
		name, batch, oracle, full := shape(i, r.data, r.edge)
		ref := want
		if i >= 5 {
			ref = oracleDecode(oracle)
		}
		got := batchDecode(batch)
		sameDecoding(t, name, ref, got)
		if full && got.short {
			t.Fatalf("%s: a batch ended short of a full chunk before the stream did", name)
		}
		ends = append(ends, got.err)
	}
	return ends
}

// seedRecs is the input of seedStream, the stream the fuzzers start from and
// the committed corpora are cut from: every record type a client writes, with
// a define and a stamp ahead of the first point, a repeated read, a site used
// twice and a slot redefined.
func seedRecs() []wireRec {
	wr := event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1}
	rd := event.Access{Addr: 0x1008, Kind: event.Read, Loc: loc.Pack(1, 8), TS: 2, Thread: 3, IterVec: 1}
	recs := []wireRec{{a: wr}, {a: rd}, {a: rd}, {r: event.Range{Base: 0x4000, Stride: 16, Count: 32, TS: 3, Loc: loc.Pack(2, 1), Kind: event.Write, IterDelta: 1}, isRange: true}}
	wr.Addr, wr.TS, wr.IterVec = 0x1010, 3, 1<<16
	twin := sameSlot(wr) // takes wr's slot
	twin.Addr, twin.TS = 0x2000, 4
	return append(recs, wireRec{a: wr}, wireRec{a: event.Access{Addr: 0x1010, Kind: event.Remove, TS: 4}}, wireRec{a: twin})
}

func seedStream() []byte { return stream(seedRecs()) }

// mixedRecs exercises every wire-legal shape: all point kinds, flags,
// repeated accesses and ranges.
func mixedRecs() []wireRec {
	var recs []wireRec
	for i, a := range randomEvents(500, 7) {
		recs = append(recs, wireRec{a: a})
		if i%37 == 0 {
			recs = append(recs, wireRec{a: a}, wireRec{a: a})
		}
		switch i % 61 {
		case 29:
			recs = append(recs, wireRec{a: event.Access{Addr: a.Addr, Kind: event.Remove, TS: a.TS}})
		case 47:
			recs = append(recs, wireRec{r: event.Range{
				Base: 0x40000, Stride: 8, Count: 64, TS: a.TS + 1,
				Loc: loc.Pack(2, 9), Var: 3, Kind: event.Write, Thread: a.Thread,
			}, isRange: true})
		}
	}
	return recs
}

// retiredRecord is the refusal a type-5 record at stream event n gets.
func retiredRecord(n int) string {
	return fmt.Sprintf("trace: event %d: record type 5 is the retired control record: a stream carries accesses only", n)
}

// runRows runs each row through the comparator as a subtest and returns how
// every shape's decode of every row ended.
func runRows(t *testing.T, rows ...decodeRow) []error {
	t.Helper()
	var ends []error
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { ends = append(ends, checkRow(t, r)...) })
	}
	return ends
}

// cuts is a cut row of data[:off] for each offset.
func cuts(data []byte, offs ...int) []decodeRow {
	var rows []decodeRow
	for _, off := range offs {
		r := row(fmt.Sprintf("cut/%d", off), data[:off])
		r.cut = true
		rows = append(rows, r)
	}
	return rows
}

// span is the offsets from up to, not including, to by step.
func span(from, to, step int) []int {
	var offs []int
	for off := from; off < to; off += step {
		offs = append(offs, off)
	}
	return offs
}

// TestRoundTrip: what the Writer writes decodes back to its input through
// every shape: random accesses, and the remote-session programs' stream over
// several 64 KiB windows.
func TestRoundTrip(t *testing.T) {
	runRows(t, input(t, "random", points(randomEvents(5000, 42))), input(t, "recorded", points(recordedStream(t)[:1<<17])))
}

// TestEmptyTrace: the Writer's stream of no events is the magic alone, and it
// decodes to nothing, cleanly.
func TestEmptyTrace(t *testing.T) {
	runRows(t, input(t, "empty", []wireRec{}))
}

// TestReplayErrors: a stream without the magic, with a bad one, with the
// retired DDT1 one, or cut inside its one record is refused by name.
func TestReplayErrors(t *testing.T) {
	ddt1, err := os.ReadFile("testdata/retired.ddt1")
	if err != nil {
		t.Fatal(err)
	}
	one := stream(points([]event.Access{{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1)}}))
	noMagic, badMagic, retired, cut := row("no-magic", nil), row("bad-magic", []byte("XXXX")), row("ddt1", ddt1), row("truncated", one[:len(one)-3])
	noMagic.want, badMagic.want, retired.want = "trace: reading magic: unexpected EOF", `trace: bad magic "XXXX"`, ErrDDT1.Error()
	cut.want = "trace: event 0 truncated: unexpected EOF"
	runRows(t, noMagic, badMagic, retired, cut)
}

// TestFramedTrace runs a trace through the framing layer the way a ddprofd
// session does — the Writer on a FrameWriter, NewReader on a FrameReader —
// and the same stream through every shape.
func TestFramedTrace(t *testing.T) {
	r := input(t, "random", points(randomEvents(3000, 99)))
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	w, _ := NewWriter(fw)
	for _, rec := range r.input {
		w.Access(rec.a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	sameDecoding(t, "session", written(r.input, r.defines, r.redefines), batchDecode(NewFrameReader(&buf, 0)))
	runRows(t, r)
}

// TestInMemoryReaderWindowed: a trace held in memory (a *bytes.Reader offers
// no window over its bytes; NewReader supplies one) decodes in whole-chunk
// batches — the in-memory shape holds every batch but the last to a full
// chunk — and its cuts near the tail end as the oracle's do.
func TestInMemoryReaderWindowed(t *testing.T) {
	var evs []event.Access
	for i := 0; i < 3*event.ChunkSize; i++ {
		evs = append(evs, event.Access{Addr: 0x1000 + uint64(i/2)*8, Kind: event.Read, Loc: loc.Pack(1, 5)})
	}
	r := input(t, "reads", points(evs))
	if len(r.data) > 1<<16 {
		t.Fatalf("the stream is %d bytes, past the one window NewReader supplies", len(r.data))
	}
	runRows(t, append([]decodeRow{r}, cuts(r.data, span(len(r.data)-12, len(r.data), 1)...)...)...)
}

// TestNextBatchChunkCapacity: a window holding more records than a chunk has
// slots fills the chunk exactly, and the rest arrive in the next call.
func TestNextBatchChunkCapacity(t *testing.T) {
	var recs []wireRec
	for i := 0; i < event.ChunkSize+100; i++ {
		recs = append(recs, wireRec{a: event.Access{Addr: uint64(0x1000 + 8*i), TS: uint64(i + 1), Kind: event.Kind(i % 2), Loc: loc.Pack(1, 1)}})
	}
	runRows(t, input(t, "chunk-edge", recs))
}

// TestNextBatchRangeCapacity: a window holding more ranges than a chunk's
// side table fills the table exactly, and the rest arrive in the next call.
func TestNextBatchRangeCapacity(t *testing.T) {
	var recs []wireRec
	for i := 0; i < event.MaxRangesPerChunk+10; i++ {
		recs = append(recs, wireRec{r: event.Range{Base: uint64(0x10000 + 0x1000*i), Stride: 8, Count: 16, TS: uint64(i + 1), Loc: loc.Pack(3, 4), Kind: event.Read}, isRange: true})
	}
	runRows(t, input(t, "range-edge", recs))
}

// withRetired is a stream of n random events, then a retired control record,
// then the same records again; it returns the offset of the retired record.
func withRetired(n int) ([]byte, int) {
	head := stream(points(randomEvents(n, 3)))
	data := append(bytes.Clone(head), retiredControlSeed(byte(event.Flush))[len(magic):]...)
	return append(data, head[len(magic):]...), len(head)
}

// TestNextBatchControlMidFrame: a retired control record mid-window ends the
// batch that meets it: the events ahead of it are in the chunk, in stream
// order, and the call returns the refusal naming it.
func TestNextBatchControlMidFrame(t *testing.T) {
	data, _ := withRetired(18)
	tr, err := NewReader(bufio.NewReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	if _, err := tr.NextBatch(c); err == nil || err.Error() != retiredRecord(18) {
		t.Fatalf("NextBatch error %v, want %q", err, retiredRecord(18))
	}
	want := randomEvents(18, 3)
	if len(c.Events) != len(want) {
		t.Fatalf("the batch holds %d events ahead of the retired record, want %d", len(c.Events), len(want))
	}
	for i := range want {
		if c.Events[i] != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, c.Events[i], want[i])
		}
	}
	r := row("retired-control", data)
	r.edge, r.want = len(data), retiredRecord(18)
	runRows(t, r)
}

// TestNextBatchCorrupt: corrupt bytes and the retired control record — whole
// in the window, or split by a frame edge after its type byte — end the
// stream with the oracle's error, at the oracle's event.
func TestNextBatchCorrupt(t *testing.T) {
	mixed := stream(mixedRecs())
	mutated := func(name string, mutate func([]byte)) decodeRow {
		b := bytes.Clone(mixed)
		mutate(b)
		return row(name, b)
	}
	retired, at := withRetired(40)
	mid, split := row("retired-control-mid-window", retired), row("retired-control-split", retired)
	mid.edge, split.edge = len(retired), at+1
	mid.want, split.want = retiredRecord(40), retiredRecord(40)
	runRows(t,
		mutated("bad-kind", func(b []byte) { b[len(b)/2] = 0xee }),
		mutated("bad-flags", func(b []byte) { b[len(b)/3] = 0x80 }),
		mutated("overflow-varint", func(b []byte) {
			copy(b[len(b)/2:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		}),
		mid, split)
}

// TestRetiredKindsRefused: kind bytes 3, 4, 6 (the retired redistribution
// kinds, event.Kind), 8 (the retired promotion hint) and 9 (the retired epoch
// mark) are no site's kind, and the control record that carried the last two
// is retired whatever its kind: each is refused by name, so none can reach a
// worker.
func TestRetiredKindsRefused(t *testing.T) {
	var rows []decodeRow
	for _, k := range []byte{3, 4, 6, 8, 9} {
		kind, control := row(fmt.Sprintf("retired-kind-%d", k), retiredKindSeed(k)), row(fmt.Sprintf("retired-control-%d", k), retiredControlSeed(k))
		kind.want, control.want = fmt.Sprintf("trace: event 0: invalid site kind %d", k), retiredRecord(0)
		rows = append(rows, kind, control)
	}
	runRows(t, rows...)
}

// TestNextBatchFrameTooLarge: the Writer on a FrameWriter flushes multi-KB
// frames; under a 256-byte cap NextBatch refuses the first oversized one as
// the oracle does. The stream's framed shapes reach frames past their cap too.
func TestNextBatchFrameTooLarge(t *testing.T) {
	r := input(t, "random", points(randomEvents(2000, 11)))
	var framed bytes.Buffer
	fw := NewFrameWriter(&framed)
	w, _ := NewWriter(fw)
	for _, rec := range r.input {
		w.Access(rec.a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	want := oracleDecode(NewFrameReader(bytes.NewReader(framed.Bytes()), 256))
	got := batchDecode(NewFrameReader(bytes.NewReader(framed.Bytes()), 256))
	if !errors.Is(got.err, ErrFrameTooLarge) {
		t.Fatalf("NextBatch ends %v, want ErrFrameTooLarge", got.err)
	}
	sameDecoding(t, "cap 256", want, got)
	oversized := false
	for _, err := range runRows(t, r) {
		oversized = oversized || errors.Is(err, ErrFrameTooLarge)
	}
	if !oversized {
		t.Error("no framed shape ended with ErrFrameTooLarge")
	}
}

// TestNextBatchFramed runs the framed shapes over the seed and the mixed
// stream at every reframe seed the fuzzer's shape byte reaches.
func TestNextBatchFramed(t *testing.T) {
	seed, mixed := input(t, "seed", seedRecs()), input(t, "mixed", mixedRecs())
	seed.shape, mixed.shape = 5+43, 5+43
	runRows(t, seed, mixed)
}

// TestNextBatchMatchesNextRecord: NextBatch decodes the mixed stream — every
// point kind, flags, repeated accesses, removes and ranges — as the
// record-at-a-time oracle does, through every shape.
func TestNextBatchMatchesNextRecord(t *testing.T) {
	runRows(t, input(t, "mixed", mixedRecs()))
}

// TestNextBatchTruncated cuts the mixed stream at a spread of offsets,
// mid-record and mid-varint among them, and at every offset near its tail,
// where its widest records are clipped: each cut ends as the oracle's does.
func TestNextBatchTruncated(t *testing.T) {
	data := stream(mixedRecs())
	runRows(t, cuts(data, append(span(4, len(data)-20, 97), span(len(data)-20, len(data), 1)...)...)...)
}

// TestNextBatchEveryOffset takes the seed stream — defines and stamps ahead
// of the points that need them, a redefine, a range — and puts a cut, then a
// frame edge, at every byte offset: between a define or stamp record and its
// point included.
func TestNextBatchEveryOffset(t *testing.T) {
	data := seedStream()
	rows := cuts(data, span(0, len(data)+1, 1)...)
	for off := 0; off <= len(data); off++ {
		edge := row(fmt.Sprintf("edge/%d", off), data)
		edge.edge, edge.shape = off, 5
		rows = append(rows, edge)
	}
	runRows(t, rows...)
}

// TestReaderTruncation cuts a trace at every byte offset: each cut replays a
// clean prefix (a cut on a record boundary) or ends with an error wrapping
// io.ErrUnexpectedEOF, and a cut inside the magic is refused.
func TestReaderTruncation(t *testing.T) {
	data := stream(points(randomEvents(20, 7)))
	rows := cuts(data, span(0, len(data), 1)...)
	for i := range rows[:len(magic)] {
		rows[i].want = "trace: reading magic: unexpected EOF"
	}
	truncated := false
	for _, err := range runRows(t, rows...) {
		truncated = truncated || errors.Is(err, io.ErrUnexpectedEOF)
	}
	if !truncated {
		t.Fatal("no cut ended with a truncation")
	}
}

// TestReaderRejectsCorruptBytes flips one byte at a time in a define record
// and the data record using it: every check refuses it by name.
func TestReaderRejectsCorruptBytes(t *testing.T) {
	define := rawDefine(5, byte(event.Write), 0)
	good := append(append([]byte(magic), define...), 5<<1, 0, 16, 0)
	if evs, err := replay(bytes.NewReader(good)); err != nil || len(evs) != 1 || evs[0].Addr != 8 {
		t.Fatalf("the uncorrupted stream: %+v, %v", evs, err)
	}
	var rows []decodeRow
	for _, tc := range []struct {
		name string
		off  int
		b    byte
		want string
	}{
		{"record-type", len(magic), 0xff, "trace: event 0: invalid record type 255"},
		{"site-kind", len(magic) + 3, byte(event.Flush), "trace: event 0: invalid site kind 5"},
		{"undefined-flag-bits", len(magic) + len(define) - 1, 0xf0, "trace: event 0: undefined flag bits 0xf0"},
		{"undefined-site-slot", len(magic) + len(define), 6 << 1, "trace: event 0: undefined site slot 6"},
		{"slot-out-of-range", len(magic) + len(define) + 1, 0xff, "trace: event 0: site slot 32645 out of range"},
		{"address-delta-cut", len(good) - 2, 0x80, "trace: event 0 truncated: unexpected EOF"},
		{"iteration-vector-cut", len(good) - 1, 0x80, "trace: event 0 truncated: unexpected EOF"},
	} {
		bad := bytes.Clone(good)
		bad[tc.off] = tc.b
		r := row(tc.name, bad)
		r.want = tc.want
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

// TestWireLimitsKept: the widest stamp and thread a store slot keeps cross
// the wire whole; one more is refused by name.
func TestWireLimitsKept(t *testing.T) {
	kept := input(t, "limits-kept", points([]event.Access{
		{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1), Thread: event.MaxThread, TS: event.MaxTS},
		{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 2), TS: event.MaxTS - 1},
		{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 2), Thread: event.MaxThread, TS: event.MaxTS},
	}))
	stamp, thread := row("stamp-2to32", limitSeed(0, event.MaxTS+1)), row("thread-512", limitSeed(event.MaxThread+1, 1))
	stamp.want = "trace: event 0: stamp 4294967296 is past 4294967295, the widest a store slot keeps"
	thread.want = "trace: event 0: thread 512 is past 511, the widest a store slot keeps"
	runRows(t, kept, stamp, thread)
}

// checkFuzzed holds NextBatch, through shape i with a frame edge at edge, to
// the oracle on data, and what the oracle decodes to the decode invariants.
func checkFuzzed(t *testing.T, data []byte, i, edge int) {
	t.Helper()
	want := oracleDecode(bytes.NewReader(data))
	checkInvariants(t, "oracle", want)
	name, batch, oracle, full := shape(i, data, edge)
	if i >= 5 {
		want = oracleDecode(oracle)
	}
	got := batchDecode(batch)
	sameDecoding(t, name, want, got)
	if full && got.short {
		t.Fatalf("%s: a batch ended short of a full chunk before the stream did", name)
	}
}

// FuzzNextBatch is the differential fuzzer: for arbitrary bytes, NextBatch —
// through the shape the second argument picks (shape, with a frame edge at
// an offset it also picks) — must decode exactly what the oracle does, and
// what the oracle decodes must hold the decode invariants. Shape bytes from
// 5 on (mod 6) are the framed shapes, at reframe seed shape/6.
func FuzzNextBatch(f *testing.F) {
	data := seedStream()
	f.Add(data, uint8(0))
	f.Add(data[:len(data)-3], uint8(1))
	corrupt := bytes.Clone(data)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt, uint8(2))
	f.Add([]byte(magic), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(1))
	f.Add(data, uint8(4+6*8))
	f.Add(data, uint8(5+6*3))
	f.Add(corrupt, uint8(5+6*4))
	f.Add(limitSeed(0, event.MaxTS+1), uint8(0))         // refused
	f.Add(limitSeed(event.MaxThread+1, 1), uint8(5+6*3)) // refused
	f.Fuzz(func(t *testing.T, data []byte, sh uint8) {
		i := int(sh % 6)
		if i == 5 {
			i += int(sh / 6)
		}
		checkFuzzed(t, data, i, int(sh/6)*len(data)/43)
	})
}

// TestFrameReaderWindow: a FrameReader's window is the current frame's
// buffered payload. Buffered never counts past the frame and never reads the
// source, Peek and Discard stay inside the frame, ReadByte steps over the
// next header, and the terminator and broken frames end the stream with the
// error text Read has always given.
func TestFrameReaderWindow(t *testing.T) {
	var framedBuf bytes.Buffer
	fw := NewFrameWriter(&framedBuf)
	fw.Write([]byte("abcde"))
	fw.Write([]byte("fg"))
	fw.Close()
	src := &readCounter{r: bytes.NewReader(framedBuf.Bytes())}
	fr := NewFrameReader(bufio.NewReaderSize(src, 16), 0)
	if n := fr.Buffered(); n != 0 || src.reads != 0 {
		t.Fatalf("before the first header: Buffered %d after %d source reads, want 0 and 0", n, src.reads)
	}
	if b, err := fr.ReadByte(); b != 'a' || err != nil {
		t.Fatalf("ReadByte = %q, %v", b, err)
	}
	// The whole stream is in the bufio buffer now; the window is the rest of
	// the first frame only.
	reads := src.reads
	if n := fr.Buffered(); n != 4 {
		t.Fatalf("Buffered = %d inside a frame with 4 bytes left", n)
	}
	if win, _ := fr.Peek(100); string(win) != "bcde" {
		t.Fatalf("Peek(100) = %q, want the frame's rest", win)
	}
	if n, _ := fr.Discard(100); n != 4 {
		t.Fatalf("Discard(100) = %d, want 4", n)
	}
	if n := fr.Buffered(); n != 0 {
		t.Fatalf("Buffered = %d at a frame edge with the next frame buffered, want 0", n)
	}
	if src.reads != reads {
		t.Fatal("Buffered/Peek/Discard read the source")
	}
	for _, want := range "fg" {
		if b, err := fr.ReadByte(); rune(b) != want || err != nil {
			t.Fatalf("ReadByte = %q, %v, want %q", b, err, want)
		}
	}
	if _, err := fr.ReadByte(); err != io.EOF || !fr.Terminated() {
		t.Fatalf("after the terminator: %v (terminated %v), want io.EOF", err, fr.Terminated())
	}
	if n := fr.Buffered(); n != 0 {
		t.Fatalf("Buffered = %d after the terminator", n)
	}

	for _, tc := range []struct {
		name, stream, want string
	}{
		{"oversized", "\xac\x02", "trace: frame of 300 bytes: frame exceeds size limit"},
		{"cut-header", "\x80", "trace: reading frame header: unexpected EOF"},
		{"cut-payload", "\x05ab", "trace: reading frame payload: unexpected EOF"},
	} {
		_, readErr := io.ReadAll(NewFrameReader(bytes.NewReader([]byte(tc.stream)), reframeMax))
		fr := NewFrameReader(bytes.NewReader([]byte(tc.stream)), reframeMax)
		var byteErr error
		for byteErr == nil {
			_, byteErr = fr.ReadByte()
		}
		if readErr == nil || readErr.Error() != tc.want || byteErr.Error() != tc.want {
			t.Errorf("%s: Read error %v, ReadByte error %v, want %q", tc.name, readErr, byteErr, tc.want)
		}
	}
}

// readCounter counts the Read calls that reach its source.
type readCounter struct {
	r     io.Reader
	reads int
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}
