package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// recordAll decodes data record-by-record with NextRecord — the reference
// decoder every NextBatch result must match.
func recordAll(data []byte) ([]Record, uint64, error) {
	return recordsOf(NewReader(bytes.NewReader(data)))
}

// recordsOf drains tr with NextRecord.
func recordsOf(tr *Reader, err error) ([]Record, uint64, error) {
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	for {
		rec, err := tr.NextRecord()
		if err != nil {
			return recs, tr.Count(), err
		}
		recs = append(recs, rec)
	}
}

// batchAll decodes data with NextBatch through the given scanner shape and
// flattens the chunks back to records: RangeRef slots pull their range from
// the side table, and collapsed reads (Rep > 0) expand to 1+Rep identical
// records, so the result is comparable record-for-record with recordAll.
// Along the way it holds BatchControl to its contract: true exactly for a
// batch that holds a control record.
func batchAll(t *testing.T, tr *Reader, err error) ([]Record, uint64, error) {
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	c := event.NewChunk()
	for {
		c.Reset()
		_, err := tr.NextBatch(c)
		ctl := false
		for _, a := range c.Events {
			if a.Kind == event.RangeRef {
				recs = append(recs, Record{Range: c.Ranges[a.Addr], IsRange: true})
				continue
			}
			ctl = ctl || a.Kind > event.Remove
			rep := a.Rep
			a.Rep = 0
			for j := uint16(0); ; j++ {
				recs = append(recs, Record{Access: a})
				if j == rep {
					break
				}
			}
		}
		if tr.BatchControl() != ctl {
			t.Fatalf("BatchControl() = %v for a batch whose slots say %v", tr.BatchControl(), ctl)
		}
		if err != nil {
			return recs, tr.Count(), err
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

// scannerShapes are the inputs NextBatch is held to NextRecord through: a
// full window, 16-byte windows that split records, an in-memory reader
// (NewReader supplies the window), no window at all (a source that trickles
// one byte per Read never has a whole record buffered: the pure
// byte-at-a-time path), and two frames meeting at edge.
func scannerShapes(data []byte, edge int) map[string]func() (*Reader, error) {
	edge = min(max(edge, 0), len(data))
	return map[string]func() (*Reader, error){
		"window":      func() (*Reader, error) { return NewReader(bufio.NewReader(bytes.NewReader(data))) },
		"tiny-window": func() (*Reader, error) { return NewReader(bufio.NewReaderSize(bytes.NewReader(data), 16)) },
		"in-memory":   func() (*Reader, error) { return NewReader(bytes.NewReader(data)) },
		"no-window":   func() (*Reader, error) { return NewReader(iotest.OneByteReader(bytes.NewReader(data))) },
		"two-frames":  func() (*Reader, error) { return NewReader(&frames{rest: [][]byte{data[:edge], data[edge:]}}) },
	}
}

// checkBatchMatchesRecord decodes data both ways across the scanner shapes,
// the frame edge in the middle, and requires identical records, counts, and
// end-of-stream errors.
func checkBatchMatchesRecord(t *testing.T, data []byte) {
	t.Helper()
	checkBatchShapes(t, data, scannerShapes(data, len(data)/2))
}

func checkBatchShapes(t *testing.T, data []byte, shapes map[string]func() (*Reader, error)) {
	t.Helper()
	want, wantN, wantErr := recordAll(data)
	for name, mk := range shapes {
		tr, err := mk()
		got, gotN, gotErr := batchAll(t, tr, err)
		sameDecode(t, name, want, wantN, wantErr, got, gotN, gotErr)
	}
}

// sameDecode requires a NextBatch decode to match its NextRecord reference:
// identical records, counts and end-of-stream errors.
func sameDecode(t *testing.T, name string, want []Record, wantN uint64, wantErr error, got []Record, gotN uint64, gotErr error) {
	t.Helper()
	if !sameEnd(wantErr, gotErr) {
		t.Fatalf("%s: end-of-stream mismatch: NextRecord %v, NextBatch %v", name, wantErr, gotErr)
	}
	if gotN != wantN {
		t.Fatalf("%s: Count mismatch: NextRecord %d, NextBatch %d", name, wantN, gotN)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: record count mismatch: NextRecord %d, NextBatch %d", name, len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d mismatch:\nNextRecord %+v\nNextBatch  %+v", name, i, want[i], got[i])
		}
	}
}

// reframeMax is the frame cap the framed arm reads under: reframe's longest
// frames exceed it, so oversized frames are part of the arm.
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

// checkFramed holds the windowed FrameReader to the byte stream it carries:
// data re-framed at seed's frame lengths must batch-decode through
// NewReader(NewFrameReader(br)) — br a 16-byte bufio.Reader over the whole
// stream, or over a source that delivers one byte per Read, so headers and
// records split across refills — exactly as NextRecord decodes the same
// frames read as a plain io.Reader: records, counts and errors.
func checkFramed(t *testing.T, data []byte, seed uint8) {
	t.Helper()
	framedData := reframe(data, seed)
	plain := struct{ io.Reader }{NewFrameReader(bytes.NewReader(framedData), reframeMax)}
	want, wantN, wantErr := recordsOf(NewReader(plain))
	var src io.Reader = bytes.NewReader(framedData)
	if seed/3%2 == 0 {
		src = iotest.OneByteReader(src)
	}
	tr, err := NewReader(NewFrameReader(bufio.NewReaderSize(src, 16), reframeMax))
	got, gotN, gotErr := batchAll(t, tr, err)
	sameDecode(t, fmt.Sprintf("framed/%d", seed), want, wantN, wantErr, got, gotN, gotErr)
}

// TestNextBatchFramed runs the framed arm over the mixed trace and the seed
// stream at every frame-length seed.
func TestNextBatchFramed(t *testing.T) {
	for _, data := range [][]byte{mixedTrace(t), seedStream()} {
		for seed := 0; seed <= 255/6; seed++ {
			checkFramed(t, data, uint8(seed))
		}
	}
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

// sameEnd reports whether two decode terminations are equivalent: both clean
// (io.EOF) or both the same error text.
func sameEnd(a, b error) bool {
	if errors.Is(a, io.EOF) && !errors.Is(a, io.ErrUnexpectedEOF) {
		return errors.Is(b, io.EOF) && !errors.Is(b, io.ErrUnexpectedEOF)
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// mixedTrace encodes a stream exercising every wire-legal shape: all point
// kinds, flags, duplicate reads, ranges, and epoch marks.
func mixedTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range randomEvents(500, 7) {
		w.Access(a)
		if i%37 == 0 {
			w.Access(a) // duplicate read or write
			w.Access(a)
		}
		switch i % 61 {
		case 13:
			w.Access(event.Access{Kind: event.EpochMark, Addr: uint64(i)})
		case 29:
			w.Access(event.Access{Addr: a.Addr, Kind: event.Remove, TS: a.TS})
		case 47:
			w.Range(event.Range{
				Base: 0x40000, Stride: 8, Count: 64, TS: a.TS + 1,
				Loc: loc.Pack(2, 9), Var: 3, Kind: event.Write, Thread: a.Thread,
			})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestNextBatchMatchesNextRecord(t *testing.T) {
	checkBatchMatchesRecord(t, mixedTrace(t))
}

func TestNextBatchTruncated(t *testing.T) {
	data := mixedTrace(t)
	// Cut the stream at a spread of offsets, including mid-record and
	// mid-varint positions: the batch decoder must report the identical
	// truncation error at the identical record index.
	for cut := 4; cut < len(data); cut += 97 {
		checkBatchMatchesRecord(t, data[:cut])
	}
	// And every offset near the tail, where the last record is clipped.
	for cut := len(data) - 20; cut < len(data); cut++ {
		checkBatchMatchesRecord(t, data[:cut])
	}
}

// TestNextBatchEveryOffset takes a short stream holding every record type —
// defines and stamps ahead of the points that need them, a redefine, a
// control record, a range — and puts a cut, then a frame edge, at every byte
// offset: between a define or stamp record and its point included. Both
// decoder gears must agree on events, Count, BatchControl and error text.
func TestNextBatchEveryOffset(t *testing.T) {
	data := seedStream()
	for off := 0; off <= len(data); off++ {
		checkBatchMatchesRecord(t, data[:off])
		checkBatchShapes(t, data, scannerShapes(data, off))
	}
}

// TestInMemoryReaderWindowed: a trace held in memory (a *bytes.Reader offers
// bytes one at a time but no window over them) must still batch-decode in the
// windowed gear — whole-chunk batches with duplicate reads folded into Rep,
// which only the windowed decoder does — and report truncation exactly like
// NextRecord.
func TestInMemoryReaderWindowed(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const records = 3 * event.ChunkSize
	for i := 0; i < records; i++ {
		w.Access(event.Access{Addr: 0x1000 + uint64(i/2)*8, Kind: event.Read, Loc: loc.Pack(1, 5)})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	n, err := tr.NextBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	if n != event.ChunkSize {
		t.Fatalf("first batch holds %d slots, want a full chunk of %d", n, event.ChunkSize)
	}
	// (The last slot's twin is still on the wire: the chunk filled first.)
	for i, a := range c.Events[:n-1] {
		if a.Rep != 1 {
			t.Fatalf("slot %d: Rep %d, want the duplicate read folded in (windowed decode)", i, a.Rep)
		}
	}
	if tr.Count() != 2*event.ChunkSize-1 {
		t.Fatalf("first batch consumed %d records, want %d", tr.Count(), 2*event.ChunkSize-1)
	}
	for cut := buf.Len() - 12; cut < buf.Len(); cut++ {
		checkBatchMatchesRecord(t, buf.Bytes()[:cut])
	}
}

func TestNextBatchCorrupt(t *testing.T) {
	data := mixedTrace(t)
	for _, tc := range []struct {
		name   string
		mutate func([]byte)
	}{
		{"bad-kind", func(b []byte) { b[len(b)/2] = 0xee }},
		{"bad-flags", func(b []byte) { b[len(b)/3] = 0x80 }},
		{"overflow-varint", func(b []byte) {
			copy(b[len(b)/2:], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), data...)
			tc.mutate(mut)
			checkBatchMatchesRecord(t, mut)
		})
	}
}

// TestRetiredKindsRefused: kind bytes 3, 4, 6 (the retired redistribution
// kinds, event.Kind) and 8 (the retired promotion hint) are no site's kind and
// head no control record: both decoder gears refuse them with the same error,
// so none can reach a worker as a data access.
func TestRetiredKindsRefused(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Kind: event.EpochMark, Addr: 1})
	_ = w.Close()
	for _, k := range []byte{3, 4, 6, 8} {
		control := bytes.Clone(buf.Bytes())
		control[len(magic)+1] = k // the control record's kind byte
		for _, tc := range []struct {
			data []byte
			want string
		}{
			{retiredKindSeed(k), fmt.Sprintf("trace: event 0: invalid site kind %d", k)},
			{control, fmt.Sprintf("trace: event 0: invalid kind %d", k)},
		} {
			if _, _, err := recordAll(tc.data); err == nil || err.Error() != tc.want {
				t.Errorf("kind %d: NextRecord error %v, want %q", k, err, tc.want)
			}
			checkBatchMatchesRecord(t, tc.data)
		}
	}
}

func TestNextBatchFrameTooLarge(t *testing.T) {
	var framed bytes.Buffer
	fw := NewFrameWriter(&framed)
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range randomEvents(2000, 11) {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	// The writer flushes multi-KB frames; a 256-byte ceiling must reject the
	// first oversized one identically on both decode paths.
	tr, err := NewReader(NewFrameReader(bytes.NewReader(framed.Bytes()), 256))
	refTr, err2 := NewReader(NewFrameReader(bytes.NewReader(framed.Bytes()), 256))
	if err != nil || err2 != nil {
		// The magic itself may sit in an oversized frame; both constructions
		// must then fail the same way.
		if !sameEnd(err, err2) || !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("construction errors diverge: %v vs %v", err, err2)
		}
		return
	}
	var refRecErr error
	for refRecErr == nil {
		_, refRecErr = refTr.NextRecord()
	}
	var batchErr error
	for batchErr == nil {
		_, batchErr = tr.NextBatch(event.NewChunk())
	}
	if !errors.Is(batchErr, ErrFrameTooLarge) {
		t.Fatalf("NextBatch error %v, want ErrFrameTooLarge", batchErr)
	}
	if !sameEnd(refRecErr, batchErr) {
		t.Fatalf("oversized-frame error diverges: NextRecord %v, NextBatch %v", refRecErr, batchErr)
	}
}

func TestNextBatchEpochMarkMidFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evs := randomEvents(40, 3)
	for i, a := range evs {
		w.Access(a)
		if i == 17 {
			w.Access(event.Access{Kind: event.EpochMark, Addr: 5})
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	checkBatchMatchesRecord(t, buf.Bytes())

	tr, err := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	if _, err := tr.NextBatch(c); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !tr.BatchControl() {
		t.Fatal("BatchControl false for a batch containing an EpochMark")
	}
	// The mark must sit in stream order between its neighbours.
	marks := 0
	for i, a := range c.Events {
		if a.Kind == event.EpochMark {
			marks++
			if a.Addr != 5 {
				t.Fatalf("EpochMark payload %d, want 5", a.Addr)
			}
			before := 0
			for _, b := range c.Events[:i] {
				if b.Kind != event.RangeRef {
					before += 1 + int(b.Rep)
				}
			}
			if before != 18 {
				t.Fatalf("EpochMark after %d point events, want 18", before)
			}
		}
	}
	if marks != 1 {
		t.Fatalf("batch holds %d EpochMarks, want 1", marks)
	}
}

func TestBatchControlDataOnly(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range randomEvents(100, 5) {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := tr.NextBatch(event.NewChunk()); err != nil {
			break
		}
		if tr.BatchControl() {
			t.Fatal("BatchControl true for a pure read/write batch")
		}
	}
}

func TestNextBatchChunkCapacity(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct events only, so no collapse: the first batch must fill the
	// chunk exactly and the remainder must arrive in the next call.
	n := event.ChunkSize + 100
	for i := 0; i < n; i++ {
		w.Access(event.Access{
			Addr: uint64(0x1000 + 8*i), TS: uint64(i + 1),
			Kind: event.Kind(i % 2), Loc: loc.Pack(1, 1),
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// The window must hold more than a chunk's worth of records for the first
	// batch to end on the chunk and not on the window: size it to the stream.
	tr, err := NewReader(bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	got, err := tr.NextBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != event.ChunkSize || c.Len() != event.ChunkSize {
		t.Fatalf("first batch appended %d (len %d), want %d", got, c.Len(), event.ChunkSize)
	}
	c.Reset()
	got, err = tr.NextBatch(c)
	if err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if got != 100 {
		t.Fatalf("second batch appended %d, want 100", got)
	}
	checkBatchMatchesRecord(t, buf.Bytes())
}

func TestNextBatchRangeCapacity(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n := event.MaxRangesPerChunk + 10
	for i := 0; i < n; i++ {
		w.Range(event.Range{
			Base: uint64(0x10000 + 0x1000*i), Stride: 8, Count: 16,
			TS: uint64(i + 1), Loc: loc.Pack(3, 4), Kind: event.Read,
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	got, err := tr.NextBatch(c)
	if err != nil {
		t.Fatal(err)
	}
	if got != event.MaxRangesPerChunk || len(c.Ranges) != event.MaxRangesPerChunk {
		t.Fatalf("first batch: %d slots, %d ranges, want %d", got, len(c.Ranges), event.MaxRangesPerChunk)
	}
	c.Reset()
	if got, _ = tr.NextBatch(c); got != 10 {
		t.Fatalf("second batch appended %d, want 10", got)
	}
	checkBatchMatchesRecord(t, buf.Bytes())
}

func TestNextBatchDupCollapse(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := event.Access{Addr: 0x2000, TS: 7, Kind: event.Read, Loc: loc.Pack(1, 2), Var: 3}
	const reps = 50
	for i := 0; i < reps; i++ {
		w.Access(a)
	}
	b := a
	b.Addr = 0x2008
	w.Access(b)
	for i := 0; i < reps; i++ {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	if _, err := tr.NextBatch(c); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("collapsed batch holds %d slots, want 3", c.Len())
	}
	total := 0
	for _, ev := range c.Events {
		total += 1 + int(ev.Rep)
	}
	if total != 2*reps+1 {
		t.Fatalf("slot multiplicities sum to %d, want %d", total, 2*reps+1)
	}
	if tr.Count() != uint64(2*reps+1) {
		t.Fatalf("Count %d, want %d", tr.Count(), 2*reps+1)
	}
	checkBatchMatchesRecord(t, buf.Bytes())
}

// FuzzNextBatch is the differential fuzzer: for arbitrary bytes, the batched
// decoder — through the scanner shape the second argument picks, a frame edge
// at an offset it also picks included — must yield exactly the records, the
// count and the end-of-stream error of the byte-at-a-time reference decoder,
// and never panic. The sixth shape is the framed arm (checkFramed): the bytes
// re-framed at lengths the argument seeds, read through a FrameReader.
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
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		if shape%6 == 5 {
			checkFramed(t, data, shape/6)
			return
		}
		shapes := scannerShapes(data, int(shape/6)*len(data)/43)
		name := [...]string{"window", "tiny-window", "in-memory", "no-window", "two-frames"}[shape%6]
		checkBatchShapes(t, data, map[string]func() (*Reader, error){name: shapes[name]})
	})
}
