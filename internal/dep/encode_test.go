package dep

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"ddprof/internal/loc"
)

func buildRichSet() (*Set, *loc.Table, []LoopRecord) {
	tab := loc.NewTable()
	tab.File("enc")
	s := NewSet()
	vars := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 60; i++ {
		k := Key{
			Type:       Type(i % 4),
			Sink:       loc.Pack(1, 1+i%9),
			Src:        loc.Pack(1, 1+i%6),
			Var:        tab.Var(vars[i%3]),
			SinkThread: int16(i % 3),
			SrcThread:  int16((i + 1) % 3),
		}
		for j := 0; j <= i%5; j++ {
			s.AddDist(k, i%2 == 0, i%3 == 0, i%7 == 0, uint32(i%4))
		}
	}
	loops := []LoopRecord{
		{Begin: loc.Pack(1, 2), End: loc.Pack(1, 8), Iterations: 1200},
		{Begin: loc.Pack(1, 3), End: loc.Pack(1, 7), Iterations: 99},
	}
	return s, tab, loops
}

func TestBinaryRoundTrip(t *testing.T) {
	s, tab, loops := buildRichSet()
	var buf bytes.Buffer
	if err := Encode(&buf, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	got, gloops, gtab, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unique() != s.Unique() {
		t.Fatalf("unique %d vs %d", got.Unique(), s.Unique())
	}
	if got.Instances() != s.Instances() {
		t.Fatalf("instances %d vs %d", got.Instances(), s.Instances())
	}
	s.Range(func(k Key, st Stats) bool {
		gst, ok := got.Lookup(k)
		if !ok {
			t.Errorf("lost %+v", k)
			return false
		}
		if gst != st {
			t.Errorf("stats mismatch for %+v: %+v vs %+v", k, gst, st)
		}
		return true
	})
	if len(gloops) != len(loops) {
		t.Fatalf("loops %d vs %d", len(gloops), len(loops))
	}
	for i := range loops {
		if gloops[i] != loops[i] {
			t.Errorf("loop %d: %+v vs %+v", i, gloops[i], loops[i])
		}
	}
	// Variable names survive (IDs are reassigned in order, which preserves
	// them exactly since encoding walks IDs densely).
	for _, name := range []string{"alpha", "beta", "gamma"} {
		id := tab.Var(name)
		if gtab.VarName(loc.VarID(id)) != name {
			t.Errorf("variable %s lost: %q", name, gtab.VarName(loc.VarID(id)))
		}
	}
}

func TestBinaryDeterministic(t *testing.T) {
	s, tab, loops := buildRichSet()
	var a, b bytes.Buffer
	if err := Encode(&a, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("encoding is not deterministic")
	}
}

func TestBinaryCompactness(t *testing.T) {
	s, tab, loops := buildRichSet()
	var bin bytes.Buffer
	if err := Encode(&bin, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	var txt strings.Builder
	if err := Write(&txt, s, tab, loops, WriterOptions{Threads: true}); err != nil {
		t.Fatal(err)
	}
	// ~60 deps must fit in a few hundred bytes.
	if bin.Len() > 2000 {
		t.Errorf("binary profile unexpectedly large: %d bytes", bin.Len())
	}
	if bin.Len() == 0 {
		t.Error("empty encoding")
	}
	t.Logf("binary %dB vs text %dB", bin.Len(), txt.Len())
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("DDP1"),                 // truncated after magic
		[]byte("DDP1\x01"),             // var count but no var
		[]byte("DDP1\x00\x01\x02\x03"), // loop count then garbage
	}
	for i, c := range cases {
		if _, _, _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecodeImplausibleCounts(t *testing.T) {
	// magic + huge varint variable count must be rejected, not allocated.
	var buf bytes.Buffer
	buf.WriteString("DDP1")
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F}) // ~2^34
	if _, _, _, err := Decode(&buf); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Errorf("huge count not rejected: %v", err)
	}
}

// TestGoldenBinaryRoundTrip pins the wire format: the canonical encoding of
// the rich set must keep this exact digest (recorded from the pre-slab
// map-backed encoder, so the format survived the storage rewrite), and the
// streaming Decoder must read back every record in canonical order.
func TestGoldenBinaryRoundTrip(t *testing.T) {
	const golden = "76be746a4a27f8a5bb20939bd007c9847dcc37ff6874c8acd04ea6b002c0a6e8"
	s, tab, loops := buildRichSet()
	var buf bytes.Buffer
	if err := Encode(&buf, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != golden {
		t.Fatalf("wire format changed: digest %s, want %s", got, golden)
	}

	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != s.Unique() {
		t.Fatalf("decoder Len %d, want %d", d.Len(), s.Unique())
	}
	if len(d.Loops()) != len(loops) || d.Loops()[0] != loops[0] {
		t.Fatalf("decoder loops %+v, want %+v", d.Loops(), loops)
	}
	var prev Key
	n := 0
	for {
		k, st, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 && !lessKey(prev, k) {
			t.Fatalf("record %d out of canonical order: %+v then %+v", n, prev, k)
		}
		prev = k
		want, ok := s.Lookup(k)
		if !ok || want != st {
			t.Fatalf("record %d: stats %+v, want %+v (ok=%v)", n, st, want, ok)
		}
		n++
	}
	if n != s.Unique() {
		t.Fatalf("streamed %d records, want %d", n, s.Unique())
	}
	if _, _, err := d.Next(); err != io.EOF {
		t.Fatalf("Next after EOF: %v", err)
	}
}

func TestDecoderTruncatedMidRecord(t *testing.T) {
	s, tab, loops := buildRichSet()
	var buf bytes.Buffer
	if err := Encode(&buf, s, tab, loops); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, _, err := d.Next()
		if err == nil {
			continue
		}
		if err == io.EOF {
			t.Fatal("truncated stream read cleanly to EOF")
		}
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("want ErrUnexpectedEOF, got %v", err)
		}
		break
	}
}

func TestEmptySetRoundTrip(t *testing.T) {
	tab := loc.NewTable()
	var buf bytes.Buffer
	if err := Encode(&buf, NewSet(), tab, nil); err != nil {
		t.Fatal(err)
	}
	got, loops, _, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Unique() != 0 || len(loops) != 0 {
		t.Error("empty round trip not empty")
	}
}

// randomKeys returns n distinct keys spread over every field lessKey reads,
// threads of both signs included; the narrow ranges make keys that tie on
// every field but the last ones common.
func randomKeys(n int, seed int64) []Key {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Key]bool, n)
	out := make([]Key, 0, n)
	for len(out) < n {
		k := Key{
			Sink:       loc.SourceLoc(rng.Intn(16) << 20),
			Src:        loc.SourceLoc(rng.Intn(16) << 20),
			Var:        loc.VarID(rng.Intn(4)),
			SinkThread: int16(rng.Intn(7) - 3),
			SrcThread:  int16(rng.Intn(7) - 3),
			Type:       Type(rng.Intn(3)),
		}
		if rng.Intn(8) == 0 {
			k.Var = loc.VarID(rng.Uint32())
			k.SinkThread, k.SrcThread = int16(rng.Uint32()), int16(rng.Uint32())
		}
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// TestPackedKeyOrder holds Encode's packed sort key to lessKey: both sort
// the same keys into the same sequence.
func TestPackedKeyOrder(t *testing.T) {
	keys := randomKeys(5000, 1)
	packed := make([]packedKey, len(keys))
	for r, k := range keys {
		packed[r] = packKey(k, r)
	}
	slices.SortFunc(packed, comparePacked)
	want := slices.Clone(keys)
	sort.Slice(want, func(i, j int) bool { return lessKey(want[i], want[j]) })
	for i, p := range packed {
		if got := keys[p.ref()]; got != want[i] {
			t.Fatalf("position %d: packed order has %+v, lessKey order %+v", i, got, want[i])
		}
	}
}

// BenchmarkEncode encodes a 20,000-dependence set, the size of a large
// profile: the canonical sort dominates.
func BenchmarkEncode(b *testing.B) {
	s, tab := NewSet(), loc.NewTable()
	for _, k := range randomKeys(20000, 2) {
		s.Add(k, false, false, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Encode(io.Discard, s, tab, nil); err != nil {
			b.Fatal(err)
		}
	}
}
