package dep

import (
	"math/bits"
	"testing"

	"ddprof/internal/loc"
)

// TestHashKeySeparatesCancellingPairs: keys whose differences cancel under
// the mix Mix replaced — XORing the variable/thread/type word, rotated, into
// the sink/source word before one multiply, so that equal Src^Var and equal
// Sink^(SinkThread|Type<<8|SrcThread<<16) gave equal hashes — all hash
// apart, and so start their probes apart in tables of every size.
func TestHashKeySeparatesCancellingPairs(t *testing.T) {
	oldHash := func(k Key) uint32 {
		x := uint64(k.Sink) | uint64(k.Src)<<32
		y := uint64(k.Var) | uint64(uint16(k.SinkThread))<<32 |
			uint64(uint16(k.SrcThread))<<48 | uint64(k.Type)<<40
		return uint32((x ^ bits.RotateLeft64(y, 32)) * 0x9E3779B97F4A7C15 >> 32)
	}
	// One family: sink line 5, source lines 1..64 through variable
	// Src^Pack(1, 0)^1 (so Src^Var is the same for every member), and three
	// keys whose type or a thread cancels a change of sink.
	var keys []Key
	for line := 1; line <= 64; line++ {
		src := loc.Pack(1, line)
		keys = append(keys, Key{Type: RAW, Sink: loc.Pack(1, 5), Src: src, Var: loc.VarID(src ^ loc.Pack(1, 0) ^ 1)})
	}
	k := keys[0]
	k.Type, k.Sink = WAR, loc.Pack(1, 5)^1<<8
	keys = append(keys, k)
	k = keys[0]
	k.SinkThread, k.Sink = 1, loc.Pack(1, 5)^1
	keys = append(keys, k)
	k = keys[0]
	k.SrcThread, k.Sink = 2, loc.Pack(1, 5)^2<<16
	keys = append(keys, k)
	seen := make(map[uint32]Key)
	for _, k := range keys {
		if oldHash(k) != oldHash(keys[0]) {
			t.Fatalf("%+v does not collide with %+v under the old mix: the family is built wrong", k, keys[0])
		}
		h := hashKey(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("%+v and %+v share hash %#x", prev, k, h)
		}
		seen[h] = k
	}
	// Their probes start apart: in a 64-slot index, the 67 keys take at
	// least half the homes.
	homes := make(map[uint32]bool)
	for h := range seen {
		homes[home(h, 63)] = true
	}
	if len(homes) < 32 {
		t.Errorf("%d keys start at %d of 64 homes", len(keys), len(homes))
	}
}
