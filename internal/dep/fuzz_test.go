package dep

import (
	"bytes"
	"strings"
	"testing"

	"ddprof/internal/loc"
)

// FuzzParse hardens the text-format parser: arbitrary input must either
// parse or return an error — never panic — and valid output of Write must
// always parse.
func FuzzParse(f *testing.F) {
	f.Add("1:60 BGN loop\n1:60 NOM {RAW 1:60|i} {INIT *}\n1:74 END loop 1200\n")
	f.Add("4:58|2 NOM {WAR 4:77|2|iter}\n")
	f.Add("1:9|1 NOM {RAW 1:8|2|flag [race?]}\n")
	f.Add("")
	f.Add("garbage {RAW\x00} NOM")
	f.Add("1:1 NOM {RAW 999999999999:1|x}")
	f.Fuzz(func(t *testing.T, input string) {
		set, loops, _, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		// Whatever parsed must survive a write/parse round trip without
		// losing dependences.
		if set.Unique() == 0 && len(loops) == 0 {
			return
		}
	})
}

// FuzzFastUpdate checks the fast-update API the engine's instance cache sits
// on: for any operation stream, recording instances through cached Ref
// pointers + ObserveVia (with arbitrary batching) must leave a Set identical
// to one built with per-instance AddDist calls.
func FuzzFastUpdate(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0xFF, 0x00, 0xFF, 0x00, 0x80, 0x7F})
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		slow := NewSet()
		fast := NewSet()
		refs := make(map[Key]*Stats)
		for len(data) >= 6 {
			op := data[:6]
			data = data[6:]
			k := Key{
				Type:       Type(op[0] % 4),
				Sink:       loc.SourceLoc(op[1] % 8),
				Src:        loc.SourceLoc(op[2] % 8),
				Var:        loc.VarID(op[3] % 4),
				SinkThread: int16(op[3] >> 6),
			}
			carried := op[4]&1 != 0
			reduction := op[4]&2 != 0
			reversed := op[4]&4 != 0
			dist := uint32(op[4] >> 3)
			n := uint64(op[5]%4) + 1 // batch 1..4 instances

			for i := uint64(0); i < n; i++ {
				slow.AddDist(k, carried, reduction, reversed, dist)
			}
			st := refs[k]
			if st == nil {
				st = fast.Ref(k)
				refs[k] = st
			}
			fast.ObserveVia(st, n, carried, reduction, reversed, dist)
		}

		if slow.Unique() != fast.Unique() {
			t.Fatalf("unique: slow %d, fast %d", slow.Unique(), fast.Unique())
		}
		if slow.Instances() != fast.Instances() {
			t.Fatalf("instances: slow %d, fast %d", slow.Instances(), fast.Instances())
		}
		slow.Range(func(k Key, st Stats) bool {
			fst, ok := fast.Lookup(k)
			if !ok {
				t.Fatalf("fast set missing key %+v", k)
			}
			if fst != st {
				t.Fatalf("stats diverge for %+v:\n slow %+v\n fast %+v", k, st, fst)
			}
			return true
		})
	})
}

// FuzzSetMergeEquivalence pins the parallel tree merge (MergeShards)
// byte-identical — via the canonical encoding — to the old serial fold, for
// arbitrary shard populations:
// empty and singleton shards, keys hitting Reduction/MinDist/MaxDist edge
// cases, and keys shared across shards in any combination.
func FuzzSetMergeEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 0, 6, 5, 4, 3, 2, 1})
	f.Add([]byte{3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 2, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		nShards := 1
		if len(data) > 0 {
			nShards = int(data[0]%8) + 1 // 1..8 shards, some left empty
			data = data[1:]
		}
		// Two independent builds of the same shard population: the tree
		// merge consumes its inputs, the serial reference must not share
		// storage with it.
		build := func() []*Set {
			shards := make([]*Set, nShards)
			for i := range shards {
				shards[i] = NewSet()
			}
			d := data
			for len(d) >= 7 {
				op := d[:7]
				d = d[7:]
				k := Key{
					Type:       Type(op[1] % 4),
					Sink:       loc.SourceLoc(op[2] % 16),
					Src:        loc.SourceLoc(op[3] % 16),
					Var:        loc.VarID(op[4] % 8),
					SinkThread: int16(op[4]>>6) - 1, // includes the -1 "no thread"
					SrcThread:  int16(op[4] >> 7),
				}
				carried := op[5]&1 != 0
				reduction := op[5]&2 != 0
				reversed := op[5]&4 != 0
				dist := uint32(op[5] >> 3)
				if op[6]&1 != 0 {
					dist = ^uint32(0) >> uint32(op[6]%31) // large distances
				}
				shards[int(op[0])%nShards].AddDist(k, carried, reduction, reversed, dist)
			}
			return shards
		}

		tab := loc.NewTable()
		encode := func(s *Set) []byte {
			var buf bytes.Buffer
			if err := Encode(&buf, s, tab, nil); err != nil {
				t.Fatalf("encode: %v", err)
			}
			return buf.Bytes()
		}

		ref := build()
		serial := NewSet()
		for _, sh := range ref {
			serial.Merge(sh)
		}
		want := encode(serial)

		// Parallel tree reduction over a second, identical build.
		tree := MergeShards(build())
		if got := encode(tree); !bytes.Equal(got, want) {
			t.Fatalf("MergeShards diverges from serial fold:\n  tree %x\nserial %x", got, want)
		}
		if tree.Instances() != serial.Instances() {
			t.Fatalf("instances: tree %d, serial %d", tree.Instances(), serial.Instances())
		}
	})
}

// FuzzDecode hardens the binary codec: arbitrary bytes must never panic or
// over-allocate.
func FuzzDecode(f *testing.F) {
	// Seed with a genuine encoding.
	s := NewSet()
	s.Add(Key{Type: RAW, Sink: 42, Src: 41, Var: 1}, true, false, false)
	var buf bytes.Buffer
	tab := loc.NewTable()
	_ = Encode(&buf, s, tab, []LoopRecord{{Begin: 1, End: 2, Iterations: 3}})
	f.Add(buf.Bytes())
	f.Add([]byte("DDP1"))
	f.Add([]byte{})
	f.Add([]byte("DDP1\xff\xff\xff\xff\xff\xff\xff\xff\x7f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, _, _, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Round-trip what decoded.
		var out bytes.Buffer
		if err := Encode(&out, set, loc.NewTable(), nil); err != nil {
			t.Fatalf("re-encode of decoded profile failed: %v", err)
		}
	})
}
