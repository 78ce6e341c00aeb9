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
	tr, err := NewReader(bytes.NewReader(data))
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
func batchAll(tr *Reader, err error) ([]Record, uint64, error) {
	if err != nil {
		return nil, 0, err
	}
	var recs []Record
	c := event.NewChunk()
	for {
		c.Reset()
		_, err := tr.NextBatch(c)
		for _, a := range c.Events {
			if a.Kind == event.RangeRef {
				recs = append(recs, Record{Range: c.Ranges[a.Addr], IsRange: true})
				continue
			}
			rep := a.Rep
			a.Rep = 0
			for j := uint16(0); ; j++ {
				recs = append(recs, Record{Access: a})
				if j == rep {
					break
				}
			}
		}
		if err != nil {
			return recs, tr.Count(), err
		}
	}
}

// checkBatchMatchesRecord decodes data both ways across four scanner shapes
// (full window, 16-byte windows that split records, an in-memory reader, and
// no window at all) and requires identical records, counts, and end-of-stream
// errors.
func checkBatchMatchesRecord(t *testing.T, data []byte) {
	t.Helper()
	want, wantN, wantErr := recordAll(data)
	scanners := map[string]func() (*Reader, error){
		// A source that trickles one byte per Read never has a whole record
		// buffered: that shape exercises the pure byte-at-a-time path.
		"window":      func() (*Reader, error) { return NewReader(bufio.NewReader(bytes.NewReader(data))) },
		"tiny-window": func() (*Reader, error) { return NewReader(bufio.NewReaderSize(bytes.NewReader(data), 16)) },
		"in-memory":   func() (*Reader, error) { return NewReader(bytes.NewReader(data)) },
		"no-window":   func() (*Reader, error) { return NewReader(iotest.OneByteReader(bytes.NewReader(data))) },
	}
	for name, mk := range scanners {
		got, gotN, gotErr := batchAll(mk())
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

// TestRetiredKindsRefused: kind bytes 3, 4 and 6 (the retired redistribution
// kinds, event.Kind) head no record: both decoder gears refuse them with the
// same error, so none can reach a worker as a data access.
func TestRetiredKindsRefused(t *testing.T) {
	for _, k := range []byte{3, 4, 6} {
		data := mixedTrace(t)
		data[len(magic)] = k // the first record's kind byte
		_, _, err := recordAll(data)
		if want := fmt.Sprintf("trace: event 0: invalid kind %d", k); err == nil || err.Error() != want {
			t.Errorf("kind %d: NextRecord error %v, want %q", k, err, want)
		}
		checkBatchMatchesRecord(t, data)
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
	tr, err := NewReader(bufio.NewReader(bytes.NewReader(buf.Bytes())))
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
// decoder — across every scanner shape — must yield exactly the records and
// the end-of-stream error of the byte-at-a-time reference decoder, and never
// panic.
func FuzzNextBatch(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1})
	w.Access(event.Access{Addr: 0x1008, Kind: event.Read, Loc: loc.Pack(1, 8), TS: 2, Thread: 3})
	w.Access(event.Access{Addr: 0x1008, Kind: event.Read, Loc: loc.Pack(1, 8), TS: 2, Thread: 3})
	w.Access(event.Access{Kind: event.EpochMark, Addr: 1})
	w.Range(event.Range{Base: 0x4000, Stride: 16, Count: 32, TS: 3, Loc: loc.Pack(2, 1), Kind: event.Write})
	w.Access(event.Access{Addr: 0x1010, Kind: event.Remove, TS: 4})
	_ = w.Close()
	f.Add(buf.Bytes(), uint8(0))
	f.Add(buf.Bytes()[:len(buf.Bytes())-3], uint8(1))
	corrupt := append([]byte(nil), buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0xff
	f.Add(corrupt, uint8(2))
	f.Add([]byte("DDT1"), uint8(0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		want, wantN, wantErr := recordAll(data)
		var tr *Reader
		var err error
		switch shape % 4 {
		case 0:
			tr, err = NewReader(bufio.NewReader(bytes.NewReader(data)))
		case 1:
			tr, err = NewReader(bufio.NewReaderSize(bytes.NewReader(data), 16))
		case 2:
			// In memory: NewReader supplies the window.
			tr, err = NewReader(bytes.NewReader(data))
		default:
			// One byte per Read leaves no record whole in the window: pure
			// slow path.
			tr, err = NewReader(iotest.OneByteReader(bytes.NewReader(data)))
		}
		got, gotN, gotErr := batchAll(tr, err)
		if !sameEnd(wantErr, gotErr) {
			t.Fatalf("end-of-stream mismatch: NextRecord %v, NextBatch %v", wantErr, gotErr)
		}
		if gotN != wantN {
			t.Fatalf("Count mismatch: NextRecord %d, NextBatch %d", wantN, gotN)
		}
		if len(got) != len(want) {
			t.Fatalf("record count mismatch: NextRecord %d, NextBatch %d", len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d mismatch:\nNextRecord %+v\nNextBatch  %+v", i, want[i], got[i])
			}
		}
	})
}
