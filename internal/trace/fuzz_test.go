package trace

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// seedStream is the stream the fuzzers start from and the committed corpora
// are cut from: every record type, with a define and a stamp ahead of the
// first point, a duplicate read, a site used twice and a slot redefined.
func seedStream() []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	wr := event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1}
	rd := event.Access{Addr: 0x1008, Kind: event.Read, Loc: loc.Pack(1, 8), TS: 2, Thread: 3, IterVec: 1}
	w.Access(wr)
	w.Access(rd)
	w.Access(rd)
	w.Access(event.Access{Kind: event.EpochMark, Addr: 1})
	w.Range(event.Range{Base: 0x4000, Stride: 16, Count: 32, TS: 3, Loc: loc.Pack(2, 1), Kind: event.Write, IterDelta: 1})
	wr.Addr, wr.TS, wr.IterVec = 0x1010, 3, 1<<16
	w.Access(wr)
	w.Access(event.Access{Addr: 0x1010, Kind: event.Remove, TS: 4})
	twin := sameSlot(wr)
	twin.Addr, twin.TS = 0x2000, 4
	w.Access(twin) // takes wr's slot
	_ = w.Close()
	return buf.Bytes()
}

// sameSlot returns an access by another site that siteSlot sends to a's slot.
func sameSlot(a event.Access) event.Access {
	for b := a; ; {
		if b.Loc++; siteSlot(&b) == siteSlot(&a) {
			return b
		}
	}
}

// retiredKindSeed is seedStream with its first define record naming kind k.
func retiredKindSeed(k byte) []byte {
	data := seedStream()
	data[len(magic)+3] = k
	return data
}

// limitSeed is a stream whose one write is by thread at stamp ts.
func limitSeed(thread int32, ts uint64) []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), Thread: thread, TS: ts})
	_ = w.Close()
	return buf.Bytes()
}

// framed wraps a stream in one length-prefixed frame and the terminator.
func framed(stream []byte) []byte {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.Write(stream)
	fw.Close()
	return buf.Bytes()
}

var update = flag.Bool("update", false, "rewrite the committed seed corpora under testdata/fuzz")

// TestSeedCorpus keeps the committed corpora of the wire-facing fuzzers what
// this generator makes of the current format: a wire change regenerates them
// with `go test ./internal/trace -run TestSeedCorpus -update`, and until then
// this test fails rather than let plain `go test` replay seeds the decoders
// refuse at the magic.
func TestSeedCorpus(t *testing.T) {
	ddt1, err := os.ReadFile("testdata/retired.ddt1")
	if err != nil {
		t.Fatal(err)
	}
	stream := seedStream()
	seeds := map[string][]byte{
		"valid":          stream,
		"cut-mid-record": stream, // less its last four bytes, in whatever wrapping
		"retired-kind-3": retiredKindSeed(3),
		"retired-kind-4": retiredKindSeed(4),
		"retired-kind-6": retiredKindSeed(6),
		"retired-ddt1":   ddt1,
		"stamp-2to32":    limitSeed(0, event.MaxTS+1),
		"thread-512":     limitSeed(event.MaxThread+1, 1),
	}
	plain := func(b []byte) []byte { return b }
	for _, fz := range []struct {
		name string
		wrap func([]byte) []byte
		args string // the fuzz function's arguments after the bytes
		tag  string // appended to the seed's file name
	}{
		{"FuzzFrames", framed, "", ""},
		{"FuzzNextBatch", plain, "uint8(1)\n", ""},
		// FuzzNextBatch's framed arm, over a 16-byte window (checkFramed).
		{"FuzzNextBatch", plain, fmt.Sprintf("uint8(%d)\n", 5+6*3), "-framed"},
		{"FuzzRangeFrame", plain, "", ""},
	} {
		for name, b := range seeds {
			if b = fz.wrap(b); name == "cut-mid-record" {
				b = b[:len(b)-4]
			}
			path := filepath.Join("testdata", "fuzz", fz.name, name+fz.tag)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n%s", b, fz.args)
			if *update {
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if got, _ := os.ReadFile(path); string(got) != want {
				t.Errorf("%s is stale: regenerate with -run TestSeedCorpus -update", path)
			}
		}
	}
}

// FuzzReplay hardens the trace reader: arbitrary bytes must either replay
// or error, never panic, and whatever replays must re-encode.
// FuzzFrames hardens the server framing layer: arbitrary bytes fed to a
// FrameReader (and through it to the trace Reader, like a ddprofd session)
// must error or replay, never panic, and a frame round trip of whatever was
// read back must be lossless.
func FuzzFrames(f *testing.F) {
	f.Add(framed(seedStream()))
	f.Add([]byte{0})
	f.Add(framed([]byte(magic)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		payload, err := io.ReadAll(fr)
		if err == nil && !fr.Terminated() {
			t.Fatal("clean EOF without terminator frame")
		}
		// Whatever payload was recovered must round-trip through framing.
		var out bytes.Buffer
		fw := NewFrameWriter(&out)
		for i := 0; i < len(payload); i += 100 {
			fw.Write(payload[i:min(i+100, len(payload))])
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := io.ReadAll(NewFrameReader(&out, 0))
		if err != nil || !bytes.Equal(back, payload) {
			t.Fatalf("frame round trip: err %v, %d bytes vs %d", err, len(back), len(payload))
		}
		// And the session path — trace reader over framed bytes — must never
		// panic.
		_, _ = ReadAll(NewFrameReader(bytes.NewReader(data), 1<<16))
	})
}

func FuzzReplay(f *testing.F) {
	f.Add(seedStream())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte(magic + "\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // a stamp delta of the full width: refused
	f.Add(limitSeed(0, event.MaxTS+1))                                    // refused
	f.Add(limitSeed(event.MaxThread+1, 1))                                // refused
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		w2, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range evs {
			w2.Access(a)
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(evs) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(evs))
		}
	})
}

// FuzzRangeFrame hardens the range-record decode path: arbitrary bytes must
// decode or error, never panic; every decoded range must be in-bounds and
// non-wrapping; the Next()-expansion of a stream must agree with its
// NextRecord() view; and whatever decodes must re-encode losslessly.
func FuzzRangeFrame(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1})
	w.Range(event.Range{Base: 0x2000, Stride: 8, Count: 64, Kind: event.Read, Loc: loc.Pack(1, 8), IterDelta: 1, TS: 1})
	w.Range(event.Range{Base: 0x9000, Stride: ^uint64(0) - 15, Count: 32, Kind: event.Write, Loc: loc.Pack(1, 9)})
	w.Access(event.Access{Addr: 0x2008, Kind: event.Read, Loc: loc.Pack(1, 10)})
	_ = w.Close()
	f.Add(buf.Bytes())
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), 7, 1, 0, 16, 64, 0, 0, 0, 0, 0, 0, 0, 0))
	// Claims count 2^30 — must be rejected before distorting accounting.
	f.Add(append([]byte(magic), 7, 0, 0, 16, 0x80, 0x80, 0x80, 0x80, 0x04, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []Record
		var total uint64
		for {
			rec, err := tr.NextRecord()
			if err == io.EOF {
				break
			}
			if err != nil {
				// The expansion view must fail on the same stream.
				if _, err2 := ReadAll(bytes.NewReader(data)); err2 == nil {
					t.Fatalf("NextRecord failed (%v) but Next replayed cleanly", err)
				}
				return
			}
			if rec.IsRange {
				rg := rec.Range
				if rg.Count < 2 || rg.Count > maxWireRangeCount {
					t.Fatalf("decoded range count %d out of bounds", rg.Count)
				}
				if rangeWraps(rg.Base, int64(rg.Stride), rg.Count) {
					t.Fatalf("decoded range wraps: base %#x stride %d count %d", rg.Base, int64(rg.Stride), rg.Count)
				}
				total += uint64(rg.Count)
			} else {
				total++
			}
			recs = append(recs, rec)
		}
		if tr.Count() != total {
			t.Fatalf("reader count %d, want %d", tr.Count(), total)
		}
		// The per-element view must be exactly the expansion of the records.
		evs, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("NextRecord replayed cleanly but Next failed: %v", err)
		}
		var want []event.Access
		for _, rec := range recs {
			if rec.IsRange {
				for j := uint32(0); j < rec.Range.Count; j++ {
					want = append(want, rec.Range.At(j))
				}
			} else {
				want = append(want, rec.Access)
			}
		}
		if len(evs) != len(want) {
			t.Fatalf("Next expanded %d events, NextRecord implies %d", len(evs), len(want))
		}
		for i := range want {
			if evs[i] != want[i] {
				t.Fatalf("event %d: Next %+v vs NextRecord expansion %+v", i, evs[i], want[i])
			}
		}
		// Re-encode the records and require a lossless second decode.
		var out bytes.Buffer
		w2, err := NewWriter(&out)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			if rec.IsRange {
				w2.Range(rec.Range)
			} else {
				w2.Access(rec.Access)
			}
		}
		if err := w2.Close(); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadAll(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(want) {
			t.Fatalf("round trip lost events: %d vs %d", len(back), len(want))
		}
	})
}
