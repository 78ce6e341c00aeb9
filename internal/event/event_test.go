package event

import (
	"testing"
	"testing/quick"

	"ddprof/internal/loc"
)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Read: "read", Write: "write", Remove: "remove", Flush: "flush",
		RangeRef: "range", EpochMark: "epoch",
		Kind(3): "invalid", Kind(4): "invalid", Kind(6): "invalid", Kind(8): "invalid", Kind(99): "invalid",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestWireKindValues pins the numeric kinds: they are DDT2 kind bytes, and 3,
// 4, 6 (the retired redistribution kinds) and 8 (the retired promotion hint)
// must stay unassigned.
func TestWireKindValues(t *testing.T) {
	want := map[Kind]uint8{Read: 0, Write: 1, Remove: 2, Flush: 5, RangeRef: 7, EpochMark: 9}
	for k, v := range want {
		if uint8(k) != v {
			t.Errorf("%v = %d, want %d", k, uint8(k), v)
		}
	}
}

func TestChunkAppendFullReset(t *testing.T) {
	c := NewChunk()
	if c.Full() || c.Len() != 0 {
		t.Fatal("fresh chunk should be empty")
	}
	a := Access{Addr: 42, Kind: Write, Loc: loc.Pack(1, 60)}
	for i := 0; i < ChunkSize; i++ {
		if c.Full() {
			t.Fatalf("chunk full after %d of %d appends", i, ChunkSize)
		}
		c.Append(a)
	}
	if !c.Full() {
		t.Fatal("chunk should be full")
	}
	if c.Len() != ChunkSize {
		t.Fatalf("Len = %d, want %d", c.Len(), ChunkSize)
	}
	if c.Events[0].Addr != 42 || c.Events[0].Loc.Line() != 60 {
		t.Error("events corrupted")
	}
	c.Reset()
	if c.Len() != 0 || c.Full() {
		t.Error("Reset did not empty the chunk")
	}
	// The backing array must be reused, not reallocated.
	c.Append(a)
	if &c.Events[0] != &c.buf[0] {
		t.Error("Reset reallocated the backing array")
	}
}

func TestPackIterVecDepths(t *testing.T) {
	// Single loop at iteration 7.
	v := PackIterVec([]uint32{7})
	if IterAt(v, 0) != 7 {
		t.Errorf("innermost = %d, want 7", IterAt(v, 0))
	}
	if IterAt(v, 1) != 0 {
		t.Errorf("parent of single loop should be 0")
	}

	// Nest of three: outer=2, mid=5, inner=9.
	v = PackIterVec([]uint32{2, 5, 9})
	if IterAt(v, 0) != 9 || IterAt(v, 1) != 5 || IterAt(v, 2) != 2 {
		t.Errorf("nest packing wrong: %d %d %d", IterAt(v, 0), IterAt(v, 1), IterAt(v, 2))
	}

	// Deeper than four: only the four innermost are kept.
	v = PackIterVec([]uint32{1, 2, 3, 4, 5, 6})
	if IterAt(v, 0) != 6 || IterAt(v, 1) != 5 || IterAt(v, 2) != 4 || IterAt(v, 3) != 3 {
		t.Error("deep nest should keep four innermost counters")
	}
}

func TestIterAtOutOfRange(t *testing.T) {
	v := PackIterVec([]uint32{1, 2, 3, 4})
	if IterAt(v, 4) != 0 || IterAt(v, -1) != 0 {
		t.Error("out-of-range depth must return 0")
	}
}

func TestPackIterVecTruncation(t *testing.T) {
	v := PackIterVec([]uint32{0x1FFFF}) // 17 bits
	if IterAt(v, 0) != 0xFFFF {
		t.Errorf("counter should truncate to 16 bits, got %#x", IterAt(v, 0))
	}
}

func TestPackIterVecProperty(t *testing.T) {
	f := func(a, b, c, d uint16) bool {
		v := PackIterVec([]uint32{uint32(a), uint32(b), uint32(c), uint32(d)})
		return IterAt(v, 0) == d && IterAt(v, 1) == c && IterAt(v, 2) == b && IterAt(v, 3) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPackIterVecEmpty(t *testing.T) {
	if PackIterVec(nil) != 0 {
		t.Error("empty iteration stack must pack to 0")
	}
}
