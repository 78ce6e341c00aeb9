package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	ml "ddprof/internal/minilang"
)

func randomEvents(n int, seed int64) []event.Access {
	r := rand.New(rand.NewSource(seed))
	out := make([]event.Access, n)
	for i := range out {
		out[i] = event.Access{
			Addr:    0x10000 + uint64(r.Intn(4096))*8,
			TS:      uint64(i + 1),
			IterVec: r.Uint64(),
			Loc:     loc.Pack(1, 1+r.Intn(200)),
			Var:     loc.VarID(r.Intn(50)),
			CtxID:   uint32(r.Intn(16)),
			Thread:  int32(r.Intn(4)),
			Kind:    event.Kind(r.Intn(2)),
			Flags:   event.Flags(r.Intn(4)),
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	evs := randomEvents(5000, 42)
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range evs {
		w.Access(a)
	}
	if w.Count() != 5000 {
		t.Fatalf("count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
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

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("empty trace: %v events, err %v", len(got), err)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := ReadAll(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadAll(strings.NewReader("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated event.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Access(event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1)})
	_ = w.Close()
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadAll(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated trace accepted")
	}
}

// TestRecordReplayProfileEquivalence: profiling a replayed trace must yield
// exactly the dependences of profiling the live run.
func TestRecordReplayProfileEquivalence(t *testing.T) {
	build := func() *ml.Program {
		p := ml.New("traced")
		p.MainFunc(func(b *ml.Block) {
			b.Decl("n", ml.Ci(100))
			b.DeclArr("a", ml.V("n"))
			b.Decl("sum", ml.Ci(0))
			b.For("i", ml.Ci(0), ml.V("n"), ml.Ci(1), ml.LoopOpt{Name: "fill"}, func(l *ml.Block) {
				l.Set("a", ml.V("i"), ml.Mul(ml.V("i"), ml.V("i")))
				l.Reduce("sum", ml.OpAdd, ml.Idx("a", ml.V("i")))
			})
			b.Free("a")
		})
		return p
	}

	// Live profile.
	live, err := core.New(core.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(build(), live, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	liveRes := live.Flush()

	// Record, then replay into a fresh profiler.
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := interp.Run(build(), w, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	replayed, err := core.New(core.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	n, err := Replay(&buf, replayed.Access)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no events replayed")
	}
	repRes := replayed.Flush()

	if liveRes.Deps.Unique() != repRes.Deps.Unique() {
		t.Fatalf("unique deps: live %d vs replay %d", liveRes.Deps.Unique(), repRes.Deps.Unique())
	}
	liveRes.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		rst, ok := repRes.Deps.Lookup(k)
		if !ok || rst.Count != st.Count {
			t.Errorf("replay diverged for %+v: %+v vs %+v", k, rst, st)
			return false
		}
		return true
	})
}

func TestCompression(t *testing.T) {
	// A sequential sweep by one instruction must cost the define once and
	// then the two header bytes and two deltas, with a stamp record ahead of
	// every point here because every point has its own TS: far below the
	// 48-byte struct.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	const n = 10000
	for i := 0; i < n; i++ {
		w.Access(event.Access{
			Addr: 0x10000 + uint64(i)*8,
			TS:   uint64(i),
			Loc:  loc.Pack(1, 7),
			Kind: event.Write,
		})
	}
	_ = w.Close()
	if d, rd := w.SiteDefines(); d != 1 || rd != 0 {
		t.Errorf("one site took %d defines, %d redefines", d, rd)
	}
	perEvent := float64(buf.Len()) / n
	if perEvent > 6.1 {
		t.Errorf("sweep trace uses %.1f bytes/event, want 6 (stamp 2, header 2, deltas 2)", perEvent)
	}
}
