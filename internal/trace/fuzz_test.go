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

// sameSlot returns an access by another site that siteKey.slot sends to a's slot.
func sameSlot(a event.Access) event.Access {
	for b := a; ; {
		if b.Loc++; keyOf(&b).slot() == keyOf(&a).slot() {
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

// retiredControlSeed is a stream whose one record is a retired control
// record naming kind k, as the last encoder that wrote one laid it out: type
// 5, the kind byte, seven zero uvarints and a zero flags byte.
func retiredControlSeed(k byte) []byte {
	return append([]byte(magic+"\x05"), k, 0, 0, 0, 0, 0, 0, 0, 0)
}

// limitSeed is a stream whose one write is by thread at stamp ts.
func limitSeed(thread int32, ts uint64) []byte {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), Thread: thread, TS: ts})
	_ = w.Close() // the Writer writes what the Reader refuses
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
// this test fails rather than let plain `go test` replay seeds the decoder
// refuses at the magic.
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
		"retired-kind-9": retiredControlSeed(9),
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
		// FuzzNextBatch's framed shape, over a 16-byte window (shape).
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
		_, _ = replay(NewFrameReader(bytes.NewReader(data), 1<<16))
	})
}

// FuzzReplay hardens the decoder on a trace held in memory, as an offline
// replay reads it: for arbitrary bytes NextBatch decodes what the oracle does,
// and whatever decodes re-encodes and decodes back to the same records.
func FuzzReplay(f *testing.F) {
	f.Add(seedStream())
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add([]byte(magic + "\x03\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")) // a stamp delta of the full width: refused
	f.Add(limitSeed(0, event.MaxTS+1))                                    // refused
	f.Add(limitSeed(event.MaxThread+1, 1))                                // refused
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFuzzed(t, data, 2, 0) // the in-memory shape
	})
}

// FuzzRangeFrame hardens the range-record decode path where every record is
// cut: for arbitrary bytes delivered one byte per Read, NextBatch decodes what
// the oracle does, every decoded range is in bounds and does not wrap, Count
// is the records' events, and whatever decodes re-encodes losslessly.
func FuzzRangeFrame(f *testing.F) {
	f.Add(stream([]wireRec{
		{a: event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 7), TS: 1}},
		{r: event.Range{Base: 0x2000, Stride: 8, Count: 64, Kind: event.Read, Loc: loc.Pack(1, 8), IterDelta: 1, TS: 1}, isRange: true},
		{r: event.Range{Base: 0x9000, Stride: ^uint64(0) - 15, Count: 32, Kind: event.Write, Loc: loc.Pack(1, 9)}, isRange: true},
		{a: event.Access{Addr: 0x2008, Kind: event.Read, Loc: loc.Pack(1, 10)}},
	}))
	f.Add([]byte(magic))
	f.Add(append([]byte(magic), 7, 1, 0, 16, 64, 0, 0, 0, 0, 0, 0, 0, 0))
	// Claims count 2^30: refused before it distorts any accounting.
	f.Add(append([]byte(magic), 7, 0, 0, 16, 0x80, 0x80, 0x80, 0x80, 0x04, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFuzzed(t, data, 3, 0) // the one-byte shape: every record through the carry
	})
}
