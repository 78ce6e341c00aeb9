package sig

import (
	"math"
	"testing"

	"ddprof/internal/loc"
)

// occupied is the number of non-empty write slots behind Occupancy().
func occupied(g *Signature) int { return int(math.Round(g.Occupancy() * float64(g.m))) }

// shardedPair returns an m-slot signature and the same told it is one of w
// stores; flags bit 0 makes both keep stamps, the other bits do nothing.
func shardedPair(m, w int, flags byte) (ref, sh *Signature) {
	ref, sh = NewSignature(m), NewSignature(m)
	sh.Shard(w)
	if flags&1 != 0 {
		ref.KeepStamps()
		sh.KeepStamps()
	}
	return ref, sh
}

// FuzzShardedSignature holds a sharded signature to the unsharded one of the
// same slot count on streams from a single residue class, which is all the
// router ever hands a worker: every lookup after every operation, and the
// occupied count at the end, agree, while the sharded table holds gcd(m, w)
// times fewer indices. ops is three bytes an operation: what
// to do, and a 16-bit position within the class.
func FuzzShardedSignature(f *testing.F) {
	f.Add(uint16(1024), byte(2), byte(1), byte(0), []byte{0, 0, 1, 1, 0, 1, 0, 2, 1, 2, 0, 1, 4, 0, 1, 1, 0, 1})
	f.Add(uint16(96), byte(8), byte(5), byte(3), []byte{0, 0, 7, 0, 0, 19, 1, 0, 7, 2, 0, 31, 3, 0, 7, 4, 0, 19})
	f.Add(uint16(1000), byte(6), byte(4), byte(7), []byte{0, 1, 244, 0, 0, 0, 1, 1, 244, 1, 0, 0})
	f.Add(uint16(4099), byte(3), byte(0), byte(2), []byte{0, 255, 255, 1, 255, 255, 4, 255, 255})
	f.Add(uint16(1), byte(4), byte(3), byte(1), []byte{0, 0, 0, 2, 0, 1, 3, 0, 2})
	f.Fuzz(func(t *testing.T, m uint16, w, residue, flags byte, ops []byte) {
		if m == 0 || w == 0 {
			t.Skip()
		}
		ref, sh := shardedPair(int(m), int(w), flags)
		g := uint64(m) / reachable(uint64(m), uint64(w))
		if sh.m*g != uint64(m) || sh.Bytes()*g != ref.Bytes() || sh.ModeledBytes()*g != ref.ModeledBytes() {
			t.Fatalf("m=%d w=%d: sharded holds %d indices, %d bytes (%d modeled); want 1/%d of %d, %d (%d)",
				m, w, sh.m, sh.Bytes(), sh.ModeledBytes(), g, m, ref.Bytes(), ref.ModeledBytes())
		}
		for n := 1; len(ops) >= 3; n, ops = n+1, ops[3:] {
			k := uint64(ops[1])<<8 | uint64(ops[2])
			// The sub-word bits vary too: no index may depend on them.
			addr := (k*uint64(w)+uint64(residue%w))<<3 | uint64(ops[0]>>5)
			s := PackSlot(loc.Pack(1, n), 0, int32(n), uint32(n), uint64(n), uint64(uint32(n)*0x9E3779B1))
			switch ops[0] % 5 {
			case 0:
				ref.SetWrite(addr, s)
				sh.SetWrite(addr, s)
			case 1:
				ref.SetRead(addr, s)
				sh.SetRead(addr, s)
			case 2:
				ref.Remove(addr)
				sh.Remove(addr)
			case 3:
				ref.At(addr).SetW(s)
				sh.At(addr).SetW(s)
			}
			rw, rok := ref.LookupWrite(addr)
			sw, sok := sh.LookupWrite(addr)
			rr, rrok := ref.LookupRead(addr)
			sr, srok := sh.LookupRead(addr)
			if rw != sw || rok != sok || rr != sr || rrok != srok {
				t.Fatalf("m=%d w=%d op %d at %#x: sharded holds W %+v/%v R %+v/%v, unsharded %+v/%v %+v/%v",
					m, w, n, addr, sw, sok, sr, srok, rw, rok, rr, rrok)
			}
		}
		if a, b := occupied(ref), occupied(sh); a != b {
			t.Fatalf("m=%d w=%d: %d write slots occupied sharded, %d unsharded", m, w, b, a)
		}
		// Occupancy is a share of the indices held.
		plain := 0
		for _, pg := range sh.pages {
			for k := uint64(0); k < sh.indices(pg); k++ {
				if sh.written(pg, k) {
					plain++
				}
			}
		}
		if got := occupied(sh); got != plain || sh.Occupancy() > 1 {
			t.Fatalf("m=%d w=%d: Occupancy %v is %d slots, the pages hold %d written", m, w, sh.Occupancy(), got, plain)
		}
	})
}

// TestShardReachesEveryIndex: a worker's residue class fills its sharded
// table completely — Occupancy 1 where the unsharded one stops at 1/gcd —
// and Shard(1) is the signature as it was.
func TestShardReachesEveryIndex(t *testing.T) {
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	for _, tc := range []struct{ m, w, held int }{
		{1024, 1, 1024}, {1024, 2, 512}, {1024, 16, 64}, {1000, 8, 125}, {96, 8, 12},
		{96, 5, 96}, {1000, 6, 500}, {100_000, 16, 6250}, {8, 16, 1},
	} {
		ref, sh := shardedPair(tc.m, tc.w, 0)
		if sh.Slots() != tc.held {
			t.Fatalf("m=%d w=%d: %d indices held, want %d", tc.m, tc.w, sh.Slots(), tc.held)
		}
		for k := 0; k < 2*tc.m; k++ {
			addr := uint64(k*tc.w+tc.w-1) << 3
			ref.SetWrite(addr, s)
			sh.SetWrite(addr, s)
		}
		if got, want := ref.Occupancy(), float64(tc.held)/float64(tc.m); got != want {
			t.Errorf("m=%d w=%d: unsharded occupancy %v, want %v", tc.m, tc.w, got, want)
		}
		if got := sh.Occupancy(); got != 1 {
			t.Errorf("m=%d w=%d: sharded occupancy %v, want 1", tc.m, tc.w, got)
		}
	}
}

// TestShardAfterAccessPanics: the routing rule is fixed before the first
// access, like the record width.
func TestShardAfterAccessPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != want {
				t.Errorf("%s: panic %v, want %q", name, r, want)
			}
		}()
		f()
	}
	g := NewSignature(64)
	g.SetRead(8, PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0))
	mustPanic("after an access", "sig: Shard after an access was recorded", func() { g.Shard(2) })
	g.Shard(1) // nothing to change, nothing to refuse
}
