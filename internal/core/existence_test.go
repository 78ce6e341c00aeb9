package core

import (
	"reflect"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
)

func TestExistenceBasicPairs(t *testing.T) {
	e := NewExistence(Config{Workers: 4})
	// write A@1; read A@2; write B@3; read B@2: pairs {1,2}, {2,3}, and the
	// self WAW pairs {1,1}, {3,3}.
	e.Access(event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1)})
	e.Access(event.Access{Addr: 0x100, Kind: event.Read, Loc: loc.Pack(1, 2)})
	e.Access(event.Access{Addr: 0x200, Kind: event.Write, Loc: loc.Pack(1, 3)})
	e.Access(event.Access{Addr: 0x200, Kind: event.Read, Loc: loc.Pack(1, 2)})
	res := e.Flush()

	want := []LinePair{
		{loc.Pack(1, 1), loc.Pack(1, 1)},
		{loc.Pack(1, 1), loc.Pack(1, 2)},
		{loc.Pack(1, 2), loc.Pack(1, 3)},
		{loc.Pack(1, 3), loc.Pack(1, 3)},
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("pairs = %v, want %v", res.SortedPairs(), want)
	}
	for _, p := range want {
		if _, ok := res.Pairs[p]; !ok {
			t.Errorf("missing pair %v", p)
		}
	}
	// Read-only addresses yield no pairs.
	e2 := NewExistence(Config{Workers: 2})
	e2.Access(event.Access{Addr: 0x300, Kind: event.Read, Loc: loc.Pack(1, 5)})
	e2.Access(event.Access{Addr: 0x300, Kind: event.Read, Loc: loc.Pack(1, 6)})
	if res2 := e2.Flush(); len(res2.Pairs) != 0 {
		t.Errorf("read-only pairs: %v", res2.SortedPairs())
	}
}

// TestExistenceCoversTypedDeps: every typed dependence found by the full
// profiler must appear as a line pair in the existence profile (existence is
// an over-approximation that never misses).
func TestExistenceCoversTypedDeps(t *testing.T) {
	evs := synthStream(100000, 300, 11)

	full := runSerial(evs)
	ex := NewExistence(Config{Workers: 4})
	for _, a := range evs {
		ex.Access(a)
	}
	eres := ex.Flush()

	full.Deps.Range(func(k dep.Key, _ dep.Stats) bool {
		if k.Type == dep.INIT {
			return true
		}
		if _, ok := eres.Pairs[pairOf(k.Src, k.Sink)]; !ok {
			t.Errorf("typed dep %v %v<-%v has no existence pair", k.Type, k.Sink, k.Src)
			return false
		}
		return true
	})
}

// TestExistenceBatchMatchesAccess: a stream with lifetime events in it, cut
// into batches, gives the pairs, balance and counts of the per-event calls.
func TestExistenceBatchMatchesAccess(t *testing.T) {
	evs := synthStream(50000, 300, 7)
	for i := 5; i < len(evs); i += 97 {
		evs[i].Kind = event.Remove
	}
	evs[len(evs)-1].Kind = event.Remove
	one := NewExistence(Config{Workers: 3})
	for _, a := range evs {
		one.Access(a)
	}
	want := one.Flush()
	bulk := NewExistence(Config{Workers: 3})
	for lo := 0; lo < len(evs); lo += 700 {
		bulk.AccessBatch(evs[lo:min(lo+700, len(evs))], nil)
	}
	got := bulk.Flush()
	if !reflect.DeepEqual(want.Pairs, got.Pairs) || !reflect.DeepEqual(want.WorkerEvents, got.WorkerEvents) ||
		want.Stats.Accesses != got.Stats.Accesses {
		t.Errorf("batched: %d pairs, events %v, %d accesses; per event: %d pairs, events %v, %d accesses",
			len(got.Pairs), got.WorkerEvents, got.Stats.Accesses, len(want.Pairs), want.WorkerEvents, want.Stats.Accesses)
	}
}

// TestRoundRobinBalancesSkewedStreams is the §VI-B claim: under a heavily
// skewed address distribution, the existence profiler's round-robin dealing
// stays balanced while the address-partitioned profiler is imbalanced.
func TestRoundRobinBalancesSkewedStreams(t *testing.T) {
	// 80% of traffic on ONE address.
	var evs []event.Access
	for i := 0; i < 200000; i++ {
		a := uint64(0x9000)
		if i%5 == 4 {
			a = uint64(0x10000 + 8*(i%1000))
		}
		k := event.Read
		if i%3 == 0 {
			k = event.Write
		}
		evs = append(evs, event.Access{Addr: a, Kind: k, Loc: loc.Pack(1, 1+i%20)})
	}

	p := NewParallel(Config{Workers: 4, Backend: "perfect"})
	for _, a := range evs {
		p.Access(a)
	}
	typed := p.Flush()

	ex := NewExistence(Config{Workers: 4})
	for _, a := range evs {
		ex.Access(a)
	}
	eres := ex.Flush()

	typedImb := Imbalance(typed.WorkerEvents)
	rrImb := Imbalance(eres.WorkerEvents)
	if typedImb < 2.0 {
		t.Errorf("address partitioning should be imbalanced on this stream: %.2f (events %v)",
			typedImb, typed.WorkerEvents)
	}
	if rrImb > 1.1 {
		t.Errorf("round-robin should be near-perfectly balanced: %.2f (events %v)",
			rrImb, eres.WorkerEvents)
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := Imbalance([]uint64{5, 5, 5, 5}); got != 1 {
		t.Errorf("even = %v", got)
	}
	if got := Imbalance([]uint64{30, 0, 0, 0, 0, 0}); got != 6 {
		t.Errorf("skewed = %v, want 6", got)
	}
	if got := Imbalance([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v", got)
	}
}
