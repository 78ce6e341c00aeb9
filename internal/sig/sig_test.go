package sig

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"ddprof/internal/loc"
)

func TestSlotPackUnpack(t *testing.T) {
	l := loc.Pack(1, 60)
	s := PackSlot(l, 17, 3, 42, 0xDEADBEEF, 123456)
	if s.Empty() {
		t.Fatal("packed slot reports empty")
	}
	if s.Loc() != l {
		t.Errorf("Loc = %v, want %v", s.Loc(), l)
	}
	if s.Thread() != 3 {
		t.Errorf("Thread = %d", s.Thread())
	}
	if s.Ctx() != 42 {
		t.Errorf("Ctx = %d", s.Ctx())
	}
	if s.Iter != 0xDEADBEEF {
		t.Errorf("Iter = %#x", s.Iter)
	}
	if s.TS != 123456 {
		t.Errorf("TS = %d", s.TS)
	}
}

func TestSlotZeroIsEmpty(t *testing.T) {
	var s Slot
	if !s.Empty() {
		t.Fatal("zero slot must be empty")
	}
	// Even an access with all-zero metadata must not look empty.
	s = PackSlot(0, 0, 0, 0, 0, 0)
	if s.Empty() {
		t.Fatal("packed slot with zero fields must still be present")
	}
}

// TestSlotPackProperty: every field comes back — the location, the iteration
// vector and the stamp at full width, thread and context at the slot's named
// widths — whatever the neighbouring fields hold, and the variable leaves no
// trace. The marks do not disturb the fields.
func TestSlotPackProperty(t *testing.T) {
	f := func(l uint32, v uint32, thr int32, ctx uint32, iter, ts uint64, red, ind bool) bool {
		s := PackSlot(loc.SourceLoc(l), loc.VarID(v), thr, ctx, iter, ts)
		if s != PackSlot(loc.SourceLoc(l), 0, thr, ctx, iter, ts) {
			return false
		}
		if red {
			s = s.WithReduction()
		}
		if ind {
			s = s.WithInduction()
		}
		return s.Loc() == loc.SourceLoc(l) &&
			s.Thread() == thr&ThreadMask &&
			s.Ctx() == ctx&CtxMask &&
			s.Iter == iter &&
			s.TS == ts &&
			s.Reduction() == red && s.Induction() == ind &&
			!s.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	s := PackSlot(^loc.SourceLoc(0), 0, ThreadMask, CtxMask, ^uint64(0), ^uint64(0))
	if s.Thread() != ThreadMask || s.Ctx() != CtxMask || s.Loc() != ^loc.SourceLoc(0) || s.TS != ^uint64(0) {
		t.Errorf("all-ones fields come back as thread %d ctx %d loc %#x ts %#x", s.Thread(), s.Ctx(), s.Loc(), s.TS)
	}
}

// storeImpl runs a common conformance suite against any Store.
func runStoreConformance(t *testing.T, name string, st Store) {
	t.Helper()
	a, b := uint64(0x1000), uint64(0x2008)
	if _, ok := st.LookupWrite(a); ok {
		t.Fatalf("%s: fresh store has write entry", name)
	}
	if _, ok := st.LookupRead(a); ok {
		t.Fatalf("%s: fresh store has read entry", name)
	}

	w := PackSlot(loc.Pack(1, 10), 1, 0, 0, 0, 1)
	st.SetWrite(a, w)
	got, ok := st.LookupWrite(a)
	if !ok || got.Loc() != w.Loc() {
		t.Fatalf("%s: write lookup after set failed", name)
	}

	r := PackSlot(loc.Pack(1, 20), 2, 0, 0, 0, 2)
	st.SetRead(a, r)
	got, ok = st.LookupRead(a)
	if !ok || got.Loc() != r.Loc() {
		t.Fatalf("%s: read lookup after set failed", name)
	}

	// Writes and reads are independent sides.
	got, _ = st.LookupWrite(a)
	if got.Loc() != w.Loc() {
		t.Fatalf("%s: read set clobbered write side", name)
	}

	// Overwrite replaces.
	w2 := PackSlot(loc.Pack(1, 30), 1, 0, 0, 0, 3)
	st.SetWrite(a, w2)
	got, _ = st.LookupWrite(a)
	if got.Loc() != w2.Loc() {
		t.Fatalf("%s: overwrite did not replace", name)
	}

	// Distinct address unaffected (addresses chosen to avoid collision in
	// the small-signature case is not guaranteed; use big signature).
	st.SetWrite(b, w)
	if got, _ := st.LookupWrite(a); got.Loc() != w2.Loc() {
		t.Fatalf("%s: setting b clobbered a", name)
	}

	// Remove clears both sides.
	st.Remove(a)
	if _, ok := st.LookupWrite(a); ok {
		t.Fatalf("%s: write survives Remove", name)
	}
	if _, ok := st.LookupRead(a); ok {
		t.Fatalf("%s: read survives Remove", name)
	}
	if _, ok := st.LookupWrite(b); !ok {
		t.Fatalf("%s: Remove(a) destroyed b", name)
	}

	if st.Bytes() == 0 {
		t.Fatalf("%s: Bytes() = 0", name)
	}
	if st.ModeledBytes() == 0 {
		t.Fatalf("%s: ModeledBytes() = 0", name)
	}
}

func TestSignatureConformance(t *testing.T) {
	runStoreConformance(t, "Signature", NewSignature(1<<20))
}

func TestPerfectSignatureConformance(t *testing.T) {
	runStoreConformance(t, "PerfectSignature", NewPerfectSignature())
}

func TestSignatureCollisionsReplace(t *testing.T) {
	g := NewSignature(1) // everything collides
	a := PackSlot(loc.Pack(1, 1), 1, 0, 0, 0, 0)
	b := PackSlot(loc.Pack(1, 2), 2, 0, 0, 0, 0)
	g.SetWrite(100, a)
	g.SetWrite(200, b)
	// Membership check for 100 now returns b's record: a false positive of
	// exactly the kind Table I quantifies.
	got, ok := g.LookupWrite(100)
	if !ok {
		t.Fatal("expected (false-positive) hit")
	}
	if got.Loc() != b.Loc() {
		t.Error("collision should replace the older record")
	}
}

func TestSignatureNoFalseNegativeWithoutCollision(t *testing.T) {
	// With slots >> addresses and no removal, every inserted address must be
	// found: signatures only err through collisions.
	g := NewSignature(1 << 16)
	for i := uint64(0); i < 1000; i++ {
		g.SetWrite(i*64, PackSlot(loc.Pack(1, int(i)), 0, 0, 0, 0, 0))
	}
	for i := uint64(0); i < 1000; i++ {
		if _, ok := g.LookupWrite(i * 64); !ok {
			t.Fatalf("address %d lost without any removal", i*64)
		}
	}
}

func TestSignatureMinimumSlots(t *testing.T) {
	g := NewSignature(0)
	if g.Slots() != 1 {
		t.Errorf("Slots() = %d, want clamp to 1", g.Slots())
	}
	g.SetWrite(5, PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0))
	if _, ok := g.LookupWrite(5); !ok {
		t.Error("single-slot signature must still function")
	}
}

// pairBytes and stampedBytes are what one index costs, from the types: a
// Pair, and a Pair with the Stamps word behind it.
const (
	pairBytes    = uint64(unsafe.Sizeof(Pair{}))
	stampedBytes = pairBytes + uint64(unsafe.Sizeof(Stamps(0)))
)

func TestSignatureBytes(t *testing.T) {
	if pairBytes != 32 || stampedBytes != 40 {
		t.Fatalf("a pair is %d bytes, %d with stamps; want 32 and 40", pairBytes, stampedBytes)
	}
	if stampedWords*8 != stampedBytes {
		t.Fatalf("a stamped record is %d words, its types %d bytes", stampedWords, stampedBytes)
	}
	g := NewSignature(1000)
	if g.Bytes() != 1000*pairBytes {
		t.Errorf("Bytes = %d", g.Bytes())
	}
	g.KeepStamps()
	g.KeepStamps() // idempotent
	if g.Bytes() != 1000*stampedBytes {
		t.Errorf("Bytes with stamps = %d", g.Bytes())
	}
	if g.ModeledBytes() != 4000 {
		t.Errorf("ModeledBytes = %d, want paper's 4 B/slot", g.ModeledBytes())
	}
	// One of w workers' signatures holds the indices its words reach, so w of
	// them cost one signature when w divides the slot count.
	for _, tc := range []struct{ slots, w, held uint64 }{
		{1000, 2, 500}, {1000, 8, 125}, {1000, 3, 1000}, {1 << 20, 2, 1 << 19}, {6_250_000, 16, 390_625},
	} {
		g := NewSignature(int(tc.slots))
		g.Shard(int(tc.w))
		if g.Bytes() != tc.held*pairBytes || g.ModeledBytes() != tc.held*4 {
			t.Errorf("%d slots, one of %d: Bytes %d, ModeledBytes %d; want %d indices' worth", tc.slots, tc.w, g.Bytes(), g.ModeledBytes(), tc.held)
		}
		g.KeepStamps()
		if g.Bytes() != tc.held*stampedBytes {
			t.Errorf("%d slots, one of %d, stamps: Bytes %d, want %d", tc.slots, tc.w, g.Bytes(), tc.held*stampedBytes)
		}
	}
	// Paper's example: 1e8 slots -> 382 MB.
	big := &Signature{m: 1e8}
	if mb := float64(big.ModeledBytes()) / (1 << 20); mb < 381 || mb > 382 {
		t.Errorf("1e8 slots modeled as %.1f MB, paper says ~382 MB", mb)
	}
}

func TestSignatureOccupancy(t *testing.T) {
	g := NewSignature(100)
	if g.Occupancy() != 0 {
		t.Fatal("fresh signature occupancy != 0")
	}
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 50; i++ {
		g.SetWrite(i, s)
		seen[g.hash(i)] = true
	}
	want := float64(len(seen)) / 100
	if got := g.Occupancy(); got != want {
		t.Errorf("Occupancy = %v, want %v", got, want)
	}
}

// TestMeasuredTracksEq2: 1000 contiguous words in 4096 slots never collide
// under the modulo hash, so the measured occupancy is n/m, while Eq. (2)
// models uniform hashing; at n/m ≈ 0.25 the two differ by < 0.03.
func TestMeasuredTracksEq2(t *testing.T) {
	const m, n = 4096, 1000
	g := NewSignature(m)
	for i := uint64(0); i < n; i++ {
		g.SetWrite(8*i, PackSlot(1, 1, 0, 0, 0, 1))
	}
	meas, pred := g.Occupancy(), 1-math.Pow(1-1.0/m, n)
	if meas != float64(n)/m {
		t.Fatalf("occupancy %v, want %v", meas, float64(n)/m)
	}
	if d := math.Abs(meas - pred); d > 0.04 {
		t.Fatalf("measured %v vs predicted %v differ by %v > 0.04", meas, pred, d)
	}
}

func TestSignatureHashUniformity(t *testing.T) {
	// Sequential word addresses (the common case: array sweeps) must spread
	// across slots, not cluster. Chi-squared-ish sanity check.
	g := NewSignature(1024)
	counts := make([]int, 1024)
	for i := uint64(0); i < 64*1024; i++ {
		counts[g.hash(0x10000+i*8)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	// Expected 64 per slot; a pathological hash would leave empty slots or
	// hot slots orders of magnitude over.
	if min == 0 || max > 64*4 {
		t.Errorf("hash poorly distributed: min=%d max=%d (expected ~64)", min, max)
	}
}
