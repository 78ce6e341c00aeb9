package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// oracleWriter is the encoder Writer replaced, kept as the reference the slab
// encoder is fuzzed against: one closure-captured scratch array, one bufio
// call per field. It must not change; DDT1 record bytes are defined by it.
type oracleWriter struct {
	bw   *bufio.Writer
	prev event.Access
}

func newOracleWriter(w io.Writer) *oracleWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(magic)
	return &oracleWriter{bw: bw}
}

func (w *oracleWriter) put(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.bw.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func (w *oracleWriter) putZig(v int64) { w.put(uint64((v << 1) ^ (v >> 63))) }

func (w *oracleWriter) Access(a event.Access) {
	w.bw.WriteByte(byte(a.Kind))
	w.putZig(int64(a.Addr) - int64(w.prev.Addr))
	w.putZig(int64(a.TS) - int64(w.prev.TS))
	w.put(uint64(a.Loc))
	w.put(uint64(a.Var))
	w.put(uint64(a.CtxID))
	w.put(a.IterVec)
	w.put(uint64(a.Thread))
	w.bw.WriteByte(byte(a.Flags))
	w.prev = a
}

func (w *oracleWriter) Range(r event.Range) {
	w.bw.WriteByte(byte(event.RangeRef))
	w.bw.WriteByte(byte(r.Kind))
	w.putZig(int64(r.Base) - int64(w.prev.Addr))
	w.putZig(int64(r.Stride))
	w.put(uint64(r.Count))
	w.putZig(int64(r.TS) - int64(w.prev.TS))
	w.put(uint64(r.Loc))
	w.put(uint64(r.Var))
	w.put(uint64(r.CtxID))
	w.put(r.IterVec)
	w.put(r.IterDelta)
	w.put(uint64(r.Thread))
	w.bw.WriteByte(byte(r.Flags))
	w.prev.Addr = r.Last()
	w.prev.TS = r.TS
}

// oracleCompactor is the Compactor that was replaced along with it: the open
// run lives in an event.Range and leaves through At().
type oracleCompactor struct {
	w   *oracleWriter
	run event.Range
}

func (c *oracleCompactor) sameRunMeta(a *event.Access) bool {
	r := &c.run
	return a.Loc == r.Loc && a.Var == r.Var && a.CtxID == r.CtxID &&
		a.Thread == r.Thread && a.Kind == r.Kind && a.Flags == r.Flags &&
		a.TS == r.TS
}

func (c *oracleCompactor) Access(a event.Access) {
	if a.Rep != 0 || (a.Kind != event.Read && a.Kind != event.Write) {
		c.flush()
		c.w.Access(a)
		return
	}
	switch {
	case c.run.Count == 0:
	case c.run.Count == 1:
		if c.sameRunMeta(&a) {
			c.run.Stride = a.Addr - c.run.Base
			c.run.IterDelta = a.IterVec - c.run.IterVec
			c.run.Count = 2
			return
		}
		c.flush()
	default:
		if c.sameRunMeta(&a) && c.run.Count < maxWireRangeCount &&
			a.Addr == c.run.Base+uint64(c.run.Count)*c.run.Stride &&
			a.IterVec == c.run.IterVec+uint64(c.run.Count)*c.run.IterDelta {
			c.run.Count++
			return
		}
		c.flush()
	}
	c.run = event.Range{
		Base: a.Addr, TS: a.TS, IterVec: a.IterVec,
		Loc: a.Loc, Var: a.Var, CtxID: a.CtxID,
		Thread: a.Thread, Kind: a.Kind, Flags: a.Flags,
		Count: 1,
	}
}

func (c *oracleCompactor) flush() {
	r := c.run
	c.run.Count = 0
	if r.Count == 0 {
		return
	}
	if r.Count >= compactMin && wireRangeOK(&r) {
		c.w.Range(r)
		return
	}
	for j := uint32(0); j < r.Count; j++ {
		c.w.Access(r.At(j))
	}
}

// fuzzStream turns fuzz bytes into a record stream that reaches every encoder
// shape: points of all wire-legal kinds, EpochMarks, Rep-carrying reads,
// strided runs (forward, backward, zero stride) for the Compactor to fold,
// explicit ranges, maximal-width varints in every field, and address and
// timestamp deltas of both signs and full magnitude.
type fuzzRec struct {
	a       event.Access
	r       event.Range
	isRange bool
}

func fuzzStream(data []byte) []fuzzRec {
	rd := bytes.NewReader(data)
	u64 := func() uint64 {
		var b [8]byte
		rd.Read(b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	// wide picks a field value: mostly small, sometimes the full width.
	wide := func(sel byte, small uint64) uint64 {
		switch sel & 7 {
		case 0:
			return ^uint64(0)
		case 1:
			return u64()
		}
		return small
	}
	var out []fuzzRec
	addr, ts := uint64(0x10000), uint64(0)
	for rd.Len() > 0 && len(out) < 4096 {
		op, _ := rd.ReadByte()
		sel, _ := rd.ReadByte()
		a := event.Access{
			Loc:     loc.SourceLoc(wide(sel, uint64(sel))),
			Var:     loc.VarID(wide(sel>>1, uint64(sel&15))),
			CtxID:   uint32(wide(sel>>2, uint64(sel&3))),
			IterVec: wide(sel>>3, uint64(sel>>4)),
			Thread:  int32(wide(sel>>4, uint64(sel&1))),
			Flags:   event.Flags(sel & 3),
		}
		switch op % 8 {
		case 0, 1: // a point near the previous one
			addr += uint64(int64(int8(sel))) * 8
			a.Addr, a.TS, a.Kind = addr, ts, [...]event.Kind{event.Read, event.Write, event.Remove, event.Flush}[op>>3&3]
			out = append(out, fuzzRec{a: a})
		case 2: // a point anywhere, time moving either way
			addr, ts = u64(), u64()
			a.Addr, a.TS, a.Kind = addr, ts, event.Kind(op>>3&1)
			out = append(out, fuzzRec{a: a})
		case 3: // an epoch mark
			out = append(out, fuzzRec{a: event.Access{Kind: event.EpochMark, Addr: uint64(sel)}})
		case 4: // a collapsed read
			a.Addr, a.TS, a.Kind, a.Rep = addr, ts, event.Read, uint16(sel)+1
			out = append(out, fuzzRec{a: a})
		case 5, 6: // a strided run of points, iteration vector advancing
			stride := uint64(int64(int8(sel>>1))) * 4
			if op%8 == 6 && sel&1 == 1 {
				stride = u64() // may wrap the address space: must flush as points
			}
			n := 1 + int(op>>3)
			a.Kind = event.Kind(sel & 1)
			for j := 0; j < n; j++ {
				a.Addr, a.TS = addr, ts
				out = append(out, fuzzRec{a: a})
				addr += stride
				a.IterVec += uint64(sel >> 6)
			}
		case 7: // an explicit range record
			r := event.Range{
				Base: addr, Stride: uint64(int64(int8(sel))), Count: 2 + uint32(op>>3), TS: ts,
				IterVec: a.IterVec, IterDelta: wide(sel>>5, 1),
				Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread,
				Kind: event.Kind(sel & 1), Flags: a.Flags,
			}
			if wireRangeOK(&r) {
				out = append(out, fuzzRec{r: r, isRange: true})
				addr = r.Last()
			}
		}
	}
	return out
}

// FuzzWriterEquivalence is the differential fuzzer of the slab encoder: for
// any record stream the new Writer must emit the oracle's bytes exactly —
// directly, through AccessBatch, and through the Compactor, locked and
// unlocked, at the default slab and at the floor (where every record straddles a flush) — and Reader
// must decode them back to the stream that went in.
func FuzzWriterEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 5 | 5<<3, 16, 3, 7, 4, 9, 7 | 3<<3, 8})
	f.Add([]byte{2, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0x80})
	f.Add([]byte{6 | 4<<3, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 5 | 9<<3, 0x82, 5 | 9<<3, 0x7e})
	f.Add(bytes.Repeat([]byte{5 | 31<<3, 4, 1, 0x28}, 40))
	f.Fuzz(checkWriterEquivalence)
}

// TestWriterEquivalence runs the fuzzer's check over seeded random inputs, so
// plain `go test` covers what the fuzzer explores.
func TestWriterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+r.Intn(600))
		r.Read(data)
		checkWriterEquivalence(t, data)
	}
}

func checkWriterEquivalence(t *testing.T, data []byte) {
	recs := fuzzStream(data)

	// Writer ≡ oracle, byte for byte, whatever the slab size.
	var want bytes.Buffer
	ow := newOracleWriter(&want)
	for _, rc := range recs {
		if rc.isRange {
			ow.Range(rc.r)
		} else {
			ow.Access(rc.a)
		}
	}
	ow.bw.Flush()
	for _, size := range []int{0, 1} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, size)
		for _, rc := range recs {
			if rc.isRange {
				w.Range(rc.r)
			} else {
				w.Access(rc.a)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("slab %d: Writer bytes differ from the oracle's (%d vs %d bytes)", size, got.Len(), want.Len())
		}
	}

	// Reader round-trips them: records back out as they went in (Rep is
	// not a wire field).
	tr, err := NewReader(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range recs {
		rec, err := tr.NextRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rc.a.Rep = 0
		if rec.IsRange != rc.isRange || rec.Range != rc.r || rec.Access != rc.a {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, rec, rc)
		}
	}
	if _, err := tr.NextRecord(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}

	// AccessBatch ≡ the oracle fed every collapsed read 1+Rep times, whatever
	// the cuts, bare and under the SyncWriter's lock.
	want.Reset()
	ow = newOracleWriter(&want)
	var slots []event.Access
	var rngs []event.Range
	var events uint64
	for _, rc := range recs {
		if rc.isRange {
			ow.Range(rc.r)
			slots = append(slots, event.Access{Kind: event.RangeRef, Addr: uint64(len(rngs))})
			rngs = append(rngs, rc.r)
			events += uint64(rc.r.Count)
			continue
		}
		for k := 0; k <= int(rc.a.Rep); k++ {
			ow.Access(rc.a)
		}
		slots = append(slots, rc.a)
		events += 1 + uint64(rc.a.Rep)
	}
	ow.bw.Flush()
	for _, locked := range []bool{false, true} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, len(data)%2)
		var hook event.BatchHook = w
		if locked {
			hook = NewSyncWriter(w)
		}
		for rest, cut := slots, 1; len(rest) > 0; cut = cut*3%11 + 1 {
			n := min(cut, len(rest))
			hook.AccessBatch(rest[:n], rngs)
			rest = rest[n:]
		}
		if w.Count() != events {
			t.Fatalf("AccessBatch counts %d events, fed %d", w.Count(), events)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("locked=%v: AccessBatch bytes differ from the oracle's (%d vs %d bytes)", locked, got.Len(), want.Len())
		}
	}

	// Compactor ≡ oracle compactor over the point records, both hooks.
	want.Reset()
	oc := &oracleCompactor{w: newOracleWriter(&want)}
	for _, rc := range recs {
		if !rc.isRange {
			oc.Access(rc.a)
		}
	}
	oc.flush()
	oc.w.bw.Flush()
	for _, unlocked := range []bool{false, true} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, 1)
		c := NewCompactor(w)
		var hook event.Hook = c
		if unlocked {
			hook = c.Unlocked()
		}
		var n uint64
		for _, rc := range recs {
			if !rc.isRange {
				hook.Access(rc.a)
				n++
			}
		}
		if c.Count() != n {
			t.Fatalf("Compactor counts %d events, fed %d", c.Count(), n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("unlocked=%v: Compactor bytes differ from the oracle's (%d vs %d bytes)", unlocked, got.Len(), want.Len())
		}
	}
}

// maximalRange is a range record of the full 103 bytes.
func maximalRange() event.Range {
	return event.Range{
		Base: 1 << 63, Stride: 1, Count: 2, TS: 1 << 63, IterVec: ^uint64(0), IterDelta: ^uint64(0),
		Loc: ^loc.SourceLoc(0), Var: ^loc.VarID(0), CtxID: ^uint32(0), Thread: -1, Kind: event.Write,
	}
}

// frameLog is a frame destination that keeps every Write apart.
type frameLog struct{ frames [][]byte }

func (l *frameLog) Write(p []byte) (int, error) {
	l.frames = append(l.frames, bytes.Clone(p))
	return len(p), nil
}

// TestSlabFrames holds the Writer to its framing contract at a tiny slab
// (clamped to the 107-byte floor), the default, and the daemon's 1MiB cap:
// every Write is at most the configured size, ends on a record boundary,
// the first carries the magic, and the concatenation is the trace.
func TestSlabFrames(t *testing.T) {
	evs := randomEvents(60000, 5)
	for _, tc := range []struct{ size, limit int }{
		{1, minSlab}, {minSlab - 1, minSlab}, {0, 1 << 16}, {DefaultMaxFrame, DefaultMaxFrame},
	} {
		var log frameLog
		w, err := NewWriterSize(&log, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		w.Range(maximalRange()) // must fit the smallest slab next to the magic
		for i, a := range evs {
			if i%1000 == 999 {
				w.Range(event.Range{Base: a.Addr, Stride: 8, Count: 50, TS: a.TS, Loc: a.Loc, Kind: event.Read})
			}
			w.Access(a)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(log.frames[0], []byte(magic)) {
			t.Fatalf("size %d: first frame does not carry the magic", tc.size)
		}
		// Decode the frames one Reader over their concatenation, and require
		// the byte offset of every frame end to be a record boundary.
		all := bytes.Join(log.frames, nil)
		ends := make(map[int]bool)
		off := 0
		for i, fr := range log.frames {
			if len(fr) == 0 || len(fr) > tc.limit {
				t.Fatalf("size %d: frame %d is %d bytes, limit %d", tc.size, i, len(fr), tc.limit)
			}
			off += len(fr)
			ends[off] = true
		}
		src := bytes.NewReader(all)
		br := bufio.NewReaderSize(src, 16) // small, so the read position below is tight
		tr, err := NewReader(br)
		if err != nil {
			t.Fatal(err)
		}
		for {
			pos := len(all) - src.Len() - br.Buffered()
			delete(ends, pos)
			if _, err := tr.NextRecord(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("size %d: %v", tc.size, err)
			}
		}
		if len(ends) != 0 {
			t.Fatalf("size %d: %d frames end inside a record", tc.size, len(ends))
		}
		if want := uint64(len(evs)) + 2 + 50*uint64(len(evs)/1000); tr.Count() != want {
			t.Fatalf("size %d: decoded %d events, want %d", tc.size, tr.Count(), want)
		}
		if tc.size == 0 && len(log.frames) < 10 {
			t.Fatalf("default slab: %d frames for %d bytes", len(log.frames), len(all))
		}
	}
}

// failAfter accepts n Writes and fails every later one.
type failAfter struct {
	n, calls int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errSink
	}
	return len(p), nil
}

// TestWriterStickyError: the first failed Write poisons the Writer — Err
// reports it, nothing is written again, Close returns it — and the hook keeps
// absorbing events without growing the slab.
func TestWriterStickyError(t *testing.T) {
	evs := randomEvents(2000, 11)
	sink := &failAfter{n: 2}
	w, _ := NewWriterSize(sink, 512)
	c := NewCompactor(w)
	for _, a := range evs {
		c.Access(a)
	}
	if !errors.Is(c.Err(), errSink) || !errors.Is(w.Err(), errSink) {
		t.Fatalf("Err() = %v / %v, want the sink's error", c.Err(), w.Err())
	}
	if sink.calls != 3 {
		t.Fatalf("sink saw %d Writes, want 3 (two accepted, one failed, none after)", sink.calls)
	}
	w.Range(event.Range{Base: 8, Stride: 8, Count: 4, Kind: event.Read})
	if err := c.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want the sink's error", err)
	}
	if sink.calls != 3 {
		t.Fatalf("Close wrote after the error: %d Writes", sink.calls)
	}
	if cap(w.buf) != 512 {
		t.Fatalf("slab grew to %d bytes", cap(w.buf))
	}

	// An inexpressible range poisons the same way.
	var buf bytes.Buffer
	w, _ = NewWriter(&buf)
	w.Range(event.Range{Base: 8, Stride: 8, Count: 1, Kind: event.Read})
	if w.Err() == nil || w.Close() == nil || buf.Len() != 0 {
		t.Fatalf("bad range: Err %v, %d bytes written", w.Err(), buf.Len())
	}
}

// TestEncodeAllocs pins the recording hooks at zero allocations per event.
func TestEncodeAllocs(t *testing.T) {
	evs := randomEvents(4096, 3)
	w, _ := NewWriter(io.Discard)
	i := 0
	next := func() event.Access { i++; return evs[i%len(evs)] }
	if n := testing.AllocsPerRun(10000, func() { w.Access(next()) }); n != 0 {
		t.Errorf("Writer.Access: %v allocs per event", n)
	}
	rg := event.Range{Base: 0x1000, Stride: 8, Count: 100, Kind: event.Write, Loc: loc.Pack(1, 2)}
	if n := testing.AllocsPerRun(10000, func() { w.Range(rg) }); n != 0 {
		t.Errorf("Writer.Range: %v allocs per record", n)
	}
	c := NewCompactor(w)
	if n := testing.AllocsPerRun(10000, func() { c.Access(next()) }); n != 0 {
		t.Errorf("Compactor.Access: %v allocs per event", n)
	}
	// A stream that compacts: runs open, extend and flush as ranges.
	run := event.Access{Addr: 0x4000, Kind: event.Read, Loc: loc.Pack(1, 9)}
	hook := c.Unlocked()
	if n := testing.AllocsPerRun(10000, func() {
		run.Addr += 8
		if run.Addr&0xff == 0 {
			run.Loc++
		}
		hook.Access(run)
	}); n != 0 {
		t.Errorf("Compactor.Unlocked().Access: %v allocs per event", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

var encodeStream []event.Access

// recordedStream captures the event stream of the three remote-session
// programs of bench/ddbench (MG, BT, kmeans, sequential builds) once.
func recordedStream(tb testing.TB) []event.Access {
	if encodeStream == nil {
		rec := event.NewRecorder()
		for _, name := range []string{"MG", "BT", "kmeans"} {
			wl, _ := workloads.ByName(name)
			if _, err := vm.Run(wl.Build(workloads.Config{}), rec, interp.Options{}); err != nil {
				tb.Fatal(err)
			}
		}
		encodeStream = rec.Events()
	}
	return encodeStream
}

// BenchmarkEncode is the in-package twin of the ledger's trace.encode row:
// the recording hooks over a recorded MG+BT+kmeans stream, into a sink that
// costs nothing. ns/event is the figure to compare; bytes/event shows what
// the Compactor saves.
func BenchmarkEncode(b *testing.B) {
	evs := recordedStream(b)
	hooks := []struct {
		name string
		mk   func(*Writer) (event.Hook, func() error)
	}{
		{"writer", func(w *Writer) (event.Hook, func() error) { return w, w.Close }},
		{"writer-batch", func(w *Writer) (event.Hook, func() error) { return batchFeed{w}, w.Close }},
		{"syncwriter-batch", func(w *Writer) (event.Hook, func() error) { s := NewSyncWriter(w); return batchFeed{s}, s.Close }},
		{"compactor-locked", func(w *Writer) (event.Hook, func() error) { c := NewCompactor(w); return c, c.Close }},
		{"compactor-unlocked", func(w *Writer) (event.Hook, func() error) {
			c := NewCompactor(w)
			return c.Unlocked(), c.Close
		}},
	}
	for _, h := range hooks {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink countWriter
			for i := 0; i < b.N; i++ {
				w, _ := NewWriter(&sink)
				hook, done := h.mk(w)
				if bf, ok := hook.(batchFeed); ok {
					for rest := evs; len(rest) > 0; rest = rest[min(event.BatchSize, len(rest)):] {
						bf.AccessBatch(rest[:min(event.BatchSize, len(rest))], nil)
					}
				} else {
					for j := range evs {
						hook.Access(evs[j])
					}
				}
				if err := done(); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(b.N) * float64(len(evs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
			b.ReportMetric(float64(sink)/total, "bytes/event")
		})
	}
}

// batchFeed marks a hook the benchmark feeds the way the executors do: through
// AccessBatch, event.BatchSize events at a time.
type batchFeed struct{ event.BatchHook }

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
