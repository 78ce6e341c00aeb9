package trace

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	ml "ddprof/internal/minilang"
)

// TestSyncWriterConcurrent hammers one SyncWriter from four goroutines; the
// resulting trace must hold every event and replay cleanly (run under -race).
func TestSyncWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSyncWriter(w)
	const threads, perThread = 4, 2000
	var wg sync.WaitGroup
	for th := 0; th < threads; th++ {
		wg.Add(1)
		go func(th int) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				sw.Access(event.Access{
					Addr:   0x10000 + uint64(th*perThread+i)*8,
					TS:     uint64(i + 1),
					Loc:    loc.Pack(1, 1+th),
					Kind:   event.Kind(i & 1),
					Thread: int32(th),
				})
			}
		}(th)
	}
	wg.Wait()
	if got := sw.Count(); got != threads*perThread {
		t.Fatalf("Count = %d, want %d", got, threads*perThread)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("replay of concurrently recorded trace: %v", err)
	}
	if len(evs) != threads*perThread {
		t.Fatalf("replayed %d events, want %d", len(evs), threads*perThread)
	}
	perTh := make(map[int32]int)
	for _, a := range evs {
		perTh[a.Thread]++
	}
	for th := int32(0); th < threads; th++ {
		if perTh[th] != perThread {
			t.Errorf("thread %d recorded %d events, want %d", th, perTh[th], perThread)
		}
	}
}

// TestSyncWriterMTWorkload records a 4-thread minilang target through a
// SyncWriter hook; the interpreter calls the hook from all target threads
// concurrently.
func TestSyncWriterMTWorkload(t *testing.T) {
	p := ml.New("mt-trace")
	p.MainFunc(func(b *ml.Block) {
		b.DeclArr("a", ml.Ci(64))
		b.Decl("sum", ml.Ci(0))
		b.Spawn(4, func(tb *ml.Block) {
			tb.For("i", ml.Ci(0), ml.Ci(16), ml.Ci(1), ml.LoopOpt{Name: "work"}, func(l *ml.Block) {
				l.Set("a", ml.Add(ml.Mul(ml.Tid(), ml.Ci(16)), ml.V("i")), ml.V("i"))
				l.Lock("m", func(cb *ml.Block) {
					cb.Reduce("sum", ml.OpAdd, ml.Idx("a", ml.Add(ml.Mul(ml.Tid(), ml.Ci(16)), ml.V("i"))))
				})
			})
		})
		b.Free("a")
	})

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSyncWriter(w)
	info, err := interp.Run(p, sw, interp.Options{Timestamps: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadAll(&buf)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if uint64(len(evs)) != sw.Count() {
		t.Fatalf("replayed %d events, recorded %d", len(evs), sw.Count())
	}
	var rw uint64
	for _, a := range evs {
		if a.Kind == event.Read || a.Kind == event.Write {
			rw++
		}
	}
	if rw != info.Accesses {
		t.Fatalf("trace holds %d read/write events, interpreter reports %d accesses", rw, info.Accesses)
	}
	threads := make(map[int32]bool)
	for _, a := range evs {
		threads[a.Thread] = true
	}
	if len(threads) < 4 {
		t.Errorf("trace shows %d distinct threads, want >= 4", len(threads))
	}
}

// TestReaderTruncation cuts a valid trace at every byte offset: each cut must
// either replay a clean prefix (cut on an event boundary) or fail with an
// error wrapping io.ErrUnexpectedEOF — never panic, never misparse.
func TestReaderTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, a := range randomEvents(20, 7) {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	sawTruncErr := false
	for cut := 0; cut < len(full); cut++ {
		evs, err := ReadAll(bytes.NewReader(full[:cut]))
		if cut < len(magic) {
			if err == nil {
				t.Fatalf("cut %d: truncated magic accepted", cut)
			}
			continue
		}
		if err == nil {
			continue // cut fell on an event boundary: a valid shorter trace
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d (%d events in): error %v does not wrap io.ErrUnexpectedEOF", cut, len(evs), err)
		}
		sawTruncErr = true
	}
	if !sawTruncErr {
		t.Fatal("no cut produced a truncation error")
	}
}

// TestReaderRejectsCorruptBytes flips one byte at a time in a define record
// and the data record using it: every validation path must refuse.
func TestReaderRejectsCorruptBytes(t *testing.T) {
	define := rawDefine(5, byte(event.Write), 0)
	good := append(append([]byte(magic), define...), 5<<1, 0, 16, 0)
	if evs, err := ReadAll(bytes.NewReader(good)); err != nil || len(evs) != 1 || evs[0].Addr != 8 {
		t.Fatalf("the uncorrupted stream: %+v, %v", evs, err)
	}
	for name, at := range map[string]struct {
		off int
		b   byte
	}{
		"record type":          {len(magic), 0xff},
		"site kind":            {len(magic) + 3, byte(event.Flush)},
		"undefined flag bits":  {len(magic) + len(define) - 1, 0xf0},
		"undefined site slot":  {len(magic) + len(define), 6 << 1},
		"slot out of range":    {len(magic) + len(define) + 1, 0xff},
		"address delta cut":    {len(good) - 2, 0x80},
		"iteration vector cut": {len(good) - 1, 0x80},
	} {
		bad := bytes.Clone(good)
		bad[at.off] = at.b
		if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupt byte %#x at %d accepted", name, at.b, at.off)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	chunks := [][]byte{[]byte("hello"), {}, []byte("frame"), bytes.Repeat([]byte{0xab}, 3000)}
	var want []byte
	for _, c := range chunks {
		if _, err := fw.Write(c); err != nil {
			t.Fatal(err)
		}
		want = append(want, c...)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write([]byte("late")); err == nil {
		t.Error("write after Close accepted")
	}

	fr := NewFrameReader(&buf, 0)
	got, err := io.ReadAll(fr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("payload mismatch: %d bytes vs %d", len(got), len(want))
	}
	if !fr.Terminated() {
		t.Error("Terminated() false after clean end of stream")
	}
}

// TestFrameTruncation: transport EOF before the terminator must surface as an
// io.ErrUnexpectedEOF-wrapping error, not a clean EOF.
func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.Write([]byte("0123456789"))
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		fr := NewFrameReader(bytes.NewReader(full[:cut]), 0)
		_, err := io.ReadAll(fr)
		if err == nil {
			t.Fatalf("cut %d: truncated framed stream read cleanly", cut)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d: error %v does not wrap io.ErrUnexpectedEOF", cut, err)
		}
		if fr.Terminated() {
			t.Fatalf("cut %d: Terminated() true without terminator", cut)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	fw.Write(bytes.Repeat([]byte{1}, 100))
	fw.Close()
	fr := NewFrameReader(&buf, 50)
	if _, err := io.ReadAll(fr); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFramedTrace runs a whole trace through the framing layer, the way
// the ddprofd session path does.
func TestFramedTrace(t *testing.T) {
	evs := randomEvents(3000, 99)
	var buf bytes.Buffer
	fw := NewFrameWriter(&buf)
	w, err := NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range evs {
		w.Access(a)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewFrameReader(&buf, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d mismatch:\n got %+v\nwant %+v", i, got[i], evs[i])
		}
	}
}
