package dep

import (
	"bytes"
	"testing"
	"unsafe"

	"ddprof/internal/loc"
)

// TestEntrySize pins a slab entry at 48 bytes — key, cached hash and inline
// aggregate, nothing else — so a 512-entry page is the 24 KiB pageShift says.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 48 {
		t.Errorf("entry is %d bytes, want 48", got)
	}
}

// slabKey deterministically fabricates distinct keys for slab tests.
func slabKey(i int) Key {
	return Key{
		Type:       Type(i % 3),
		Sink:       loc.SourceLoc(1000 + i),
		Src:        loc.SourceLoc(2000 + i/2),
		Var:        loc.VarID(i % 17),
		SinkThread: int16(i % 5),
		SrcThread:  int16(i % 7),
	}
}

// TestRefPointerStability pins the contract the engine's instance cache
// depends on: a *Stats returned by Ref keeps aliasing its key's aggregate
// across thousands of later insertions (which regrow the index and append
// slab pages many times over).
func TestRefPointerStability(t *testing.T) {
	s := NewSet()
	type held struct {
		k  Key
		st *Stats
	}
	var early []held
	for i := 0; i < 64; i++ {
		k := slabKey(i)
		early = append(early, held{k, s.Ref(k)})
	}
	for i := 64; i < 20000; i++ {
		s.AddDist(slabKey(i), i%2 == 0, false, false, uint32(i%9))
	}
	for _, h := range early {
		s.ObserveVia(h.st, 3, true, false, false, 7)
	}
	for _, h := range early {
		got, ok := s.Lookup(h.k)
		if !ok {
			t.Fatalf("key %+v lost after growth", h.k)
		}
		if got != *h.st {
			t.Fatalf("stale pointer for %+v: via ptr %+v, via lookup %+v", h.k, *h.st, got)
		}
		if got.Count != 3 || !got.Carried || got.MinDist != 7 {
			t.Fatalf("updates through held pointer not visible: %+v", got)
		}
	}
	if s.Unique() != 20000 {
		t.Fatalf("unique = %d, want 20000", s.Unique())
	}
}

func TestMergeShardsEquivalence(t *testing.T) {
	build := func() []*Set {
		shards := make([]*Set, 7)
		for w := range shards {
			shards[w] = NewSet()
			if w == 3 {
				continue // keep one shard empty
			}
			for i := 0; i < 50+w*30; i++ {
				k := slabKey((i * (w + 1)) % 90) // overlapping key ranges
				shards[w].AddDist(k, i%2 == 0, i%3 == 0, i%11 == 0, uint32(i%6))
			}
		}
		return shards
	}
	serial := NewSet()
	for _, sh := range build() {
		serial.Merge(sh)
	}
	tree := MergeShards(build())
	if tree.Unique() != serial.Unique() || tree.Instances() != serial.Instances() {
		t.Fatalf("tree unique/instances %d/%d, serial %d/%d",
			tree.Unique(), tree.Instances(), serial.Unique(), serial.Instances())
	}
	tab := loc.NewTable()
	var a, b bytes.Buffer
	if err := Encode(&a, serial, tab, nil); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, tree, tab, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("tree merge not byte-identical to serial fold under canonical encoding")
	}
}

func TestMergeShardsEdgeCases(t *testing.T) {
	if got := MergeShards(nil); got == nil || got.Unique() != 0 {
		t.Fatalf("empty input: %v", got)
	}
	if got := MergeShards([]*Set{nil, nil}); got == nil || got.Unique() != 0 {
		t.Fatalf("all-nil input: %v", got)
	}
	single := NewSet()
	single.Add(slabKey(1), false, false, false)
	if got := MergeShards([]*Set{nil, single, nil}); got != single {
		t.Fatal("singleton must be returned as-is")
	}
}

// TestResetSteadyStateAllocs pins the pooling story: a long-lived daemon
// that Resets and refills a Set to a comparable population must not allocate
// — the index stays at its grown size and the slab pages are retained.
func TestResetSteadyStateAllocs(t *testing.T) {
	const n = 3000
	fill := func(s *Set) {
		for i := 0; i < n; i++ {
			s.AddDist(slabKey(i), i%2 == 0, false, false, uint32(i%4))
		}
	}
	s := NewSet()
	fill(s) // warm: grow index, fault in pages
	allocs := testing.AllocsPerRun(20, func() {
		s.Reset()
		fill(s)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset+refill allocates %v objects/run, want 0", allocs)
	}
	if s.Unique() != n {
		t.Fatalf("unique after refill = %d, want %d", s.Unique(), n)
	}
}

func TestResetClearsContents(t *testing.T) {
	s := NewSet()
	s.Add(slabKey(1), true, false, false)
	s.Add(slabKey(2), false, false, false)
	s.Reset()
	if s.Unique() != 0 || s.Instances() != 0 {
		t.Fatalf("after Reset: unique %d instances %d", s.Unique(), s.Instances())
	}
	if _, ok := s.Lookup(slabKey(1)); ok {
		t.Fatal("key survived Reset")
	}
	s.Add(slabKey(3), false, false, false)
	if s.Unique() != 1 || s.Instances() != 1 {
		t.Fatal("Set unusable after Reset")
	}
}

func TestReleaseReturnsToFreshState(t *testing.T) {
	s := NewSet()
	for i := 0; i < 2000; i++ {
		s.Add(slabKey(i), false, false, false)
	}
	s.Release()
	if s.Unique() != 0 || s.Instances() != 0 {
		t.Fatal("Release did not empty the set")
	}
	// Still usable, like a fresh NewSet.
	s.Add(slabKey(5), true, false, false)
	st, ok := s.Lookup(slabKey(5))
	if !ok || st.Count != 1 || !st.Carried {
		t.Fatalf("set unusable after Release: %+v ok=%v", st, ok)
	}
}

// TestPagePoolReuse exercises the cross-set page recycling path end to end:
// released pages must come back zero-cost to a later set without leaking
// stale entries into it.
func TestPagePoolReuse(t *testing.T) {
	a := NewSet()
	for i := 0; i < 5000; i++ {
		a.AddDist(slabKey(i), true, true, true, 99)
	}
	a.Release()
	b := NewSet()
	for i := 0; i < 5000; i++ {
		b.Add(slabKey(i), false, false, false)
	}
	bad := 0
	b.Range(func(_ Key, st Stats) bool {
		if st.Count != 1 || st.Carried || st.Reversed || st.MaxDist != 0 {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Fatalf("%d entries contaminated by recycled pages", bad)
	}
}

func TestInsertionOrderIteration(t *testing.T) {
	s := NewSet()
	var want []Key
	for i := 200; i >= 0; i-- { // descending, to differ from any sorted order
		k := slabKey(i)
		s.Add(k, false, false, false)
		want = append(want, k)
	}
	got := s.Keys()
	if len(got) != len(want) {
		t.Fatalf("keys %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("iteration order not insertion order at %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
