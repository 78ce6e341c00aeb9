package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

func TestRangeRecordRoundTrip(t *testing.T) {
	ranges := []event.Range{
		{Base: 0x1000, Stride: 8, Count: 1000, TS: 7, IterVec: 3, IterDelta: 1,
			Loc: loc.Pack(1, 10), Var: 4, CtxID: 2, Thread: 1, Kind: event.Write, Flags: event.FlagReduction},
		{Base: 0x90000, Stride: ^uint64(0) - 7, Count: 500, Kind: event.Read, Loc: loc.Pack(1, 11)}, // stride -8
		{Base: 0x5000, Stride: 0, Count: 2, Kind: event.Read, Loc: loc.Pack(1, 12)},
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.Access(event.Access{Addr: 0xff8, Kind: event.Write, Loc: loc.Pack(1, 9), TS: 6})
	for _, r := range ranges {
		w.Range(r)
	}
	w.Access(event.Access{Addr: 0x5008, Kind: event.Read, Loc: loc.Pack(1, 13)})
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	wantCount := uint64(2)
	for _, r := range ranges {
		wantCount += uint64(r.Count)
	}
	if w.Count() != wantCount {
		t.Fatalf("writer count %d, want %d", w.Count(), wantCount)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// NextRecord must hand the ranges back field-for-field.
	tr, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got []event.Range
	for {
		rec, err := tr.NextRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.IsRange {
			got = append(got, rec.Range)
		}
	}
	if tr.Count() != wantCount {
		t.Fatalf("reader count %d, want %d", tr.Count(), wantCount)
	}
	if len(got) != len(ranges) {
		t.Fatalf("decoded %d ranges, want %d", len(got), len(ranges))
	}
	for i, r := range ranges {
		if got[i] != r {
			t.Errorf("range %d: got %+v, want %+v", i, got[i], r)
		}
	}

	// Next must expand to exactly the per-element stream.
	evs, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(evs)) != wantCount {
		t.Fatalf("expanded %d events, want %d", len(evs), wantCount)
	}
	i := 1
	for _, r := range ranges {
		for j := uint32(0); j < r.Count; j++ {
			if evs[i] != r.At(j) {
				t.Fatalf("element %d: got %+v, want %+v", i, evs[i], r.At(j))
			}
			i++
		}
	}
}

// rawRange hand-encodes a range record so rejection tests can produce frames
// the Writer refuses to emit; it moves the stamp by ts, by thread.
func rawRange(elemKind byte, base, stride int64, count uint64, flags byte, ts int64, thread uint64) []byte {
	var out []byte
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { out = append(out, buf[:binary.PutUvarint(buf[:], v)]...) }
	zig := func(v int64) { put(uint64((v << 1) ^ (v >> 63))) }
	out = append(out, byte(event.RangeRef), elemKind)
	zig(base) // delta from prev.Addr == 0 at stream start
	zig(stride)
	put(count)
	zig(ts)
	for i := 0; i < 5; i++ {
		put(0) // Loc, Var, CtxID, IterVec, IterDelta
	}
	put(thread)
	return append(out, flags)
}

func TestRangeRecordRejection(t *testing.T) {
	cases := []struct {
		name string
		body []byte
		want string
	}{
		{"count-1", rawRange(byte(event.Write), 0x1000, 8, 1, 0, 0, 0), "count 1 out of bounds"},
		{"count-huge", rawRange(byte(event.Write), 0x1000, 8, 1<<30, 0, 0, 0), "out of bounds"},
		{"overflow-up", rawRange(byte(event.Write), -8, 1<<62, 16, 0, 0, 0), "overflows"},
		{"overflow-down", rawRange(byte(event.Write), 0x100, -256, 3, 0, 0, 0), "overflows"},
		{"bad-elem-kind", rawRange(byte(event.Remove), 0x1000, 8, 4, 0, 0, 0), "element kind"},
		{"bad-flags", rawRange(byte(event.Read), 0x1000, 8, 4, 0x80, 0, 0), "flag bits"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := append([]byte(magic), tc.body...)
			tr, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tr.NextRecord(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
	// Every truncation of a valid range record must error (wrapping
	// io.ErrUnexpectedEOF), never panic, never succeed.
	full := rawRange(byte(event.Write), 0x1000, 8, 64, 0, 0, 0)
	for cut := 0; cut < len(full); cut++ {
		data := append([]byte(magic), full[:cut]...)
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.NextRecord(); err == nil {
			t.Fatalf("cut %d: truncated range decoded", cut)
		} else if cut > 0 && !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("cut %d: err = %v, want truncation", cut, err)
		}
	}
}

func TestCompactorExactReplay(t *testing.T) {
	// A stream with long strided runs, an interleaved section that must NOT
	// compress (order preservation), dup reads, a control event, and an
	// MT-style section with distinct timestamps.
	var evs []event.Access
	for i := 0; i < 2000; i++ {
		evs = append(evs, event.Access{Addr: 0x1000 + uint64(i)*8, Kind: event.Write,
			Loc: loc.Pack(1, 10), Var: 1, CtxID: 3, IterVec: uint64(i)})
	}
	for i := 0; i < 500; i++ {
		evs = append(evs,
			event.Access{Addr: 0x20000 + uint64(i)*8, Kind: event.Read, Loc: loc.Pack(1, 20), IterVec: uint64(i)},
			event.Access{Addr: 0x40000 + uint64(i)*8, Kind: event.Write, Loc: loc.Pack(1, 21), IterVec: uint64(i)},
		)
	}
	evs = append(evs, event.Access{Addr: 0x1000, Kind: event.Remove})
	for i := 0; i < 100; i++ {
		evs = append(evs, event.Access{Addr: 0x60000 + uint64(i)*8, Kind: event.Write,
			Loc: loc.Pack(2, 5), TS: uint64(i + 1), Thread: int32(i % 2)})
	}

	var plain, comp bytes.Buffer
	pw, _ := NewWriter(&plain)
	for _, a := range evs {
		pw.Access(a)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	cw, _ := NewWriter(&comp)
	c := NewCompactor(cw)
	for _, a := range evs {
		c.Access(a)
	}
	if c.Count() != uint64(len(evs)) {
		t.Fatalf("compactor count %d, want %d", c.Count(), len(evs))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The interleaved and MT sections stay point-encoded, so the whole-stream
	// ratio is bounded by them; the 2000-event strided prefix alone collapses
	// to a handful of records.
	if comp.Len() >= plain.Len()/2 {
		t.Errorf("compacted trace %d bytes vs plain %d: expected >2x shrink", comp.Len(), plain.Len())
	}
	got, err := ReadAll(bytes.NewReader(comp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}

	// The interleaved section must have stayed point-encoded: count its
	// records. Two alternating instructions can never extend one run.
	tr, err := NewReader(bytes.NewReader(comp.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var nRanges, nPoints int
	for {
		rec, err := tr.NextRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.IsRange {
			nRanges++
		} else {
			nPoints++
		}
	}
	if nRanges == 0 {
		t.Error("no range records: compactor never compressed")
	}
	if nPoints < 1000+1+100 {
		t.Errorf("only %d point records: the interleaved/MT sections must stay points", nPoints)
	}
}
