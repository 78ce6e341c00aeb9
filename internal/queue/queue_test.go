package queue

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// basicQueue is the common surface all three implementations share.
type basicQueue[T any] interface {
	TryPush(T) bool
	TryPop() (T, bool)
	Push(T)
	Len() int
}

func runFIFO(t *testing.T, name string, q basicQueue[int], capacity int) {
	t.Helper()
	if _, ok := q.TryPop(); ok {
		t.Fatalf("%s: pop from empty succeeded", name)
	}
	for i := 0; i < capacity; i++ {
		if !q.TryPush(i) {
			t.Fatalf("%s: push %d/%d failed", name, i, capacity)
		}
	}
	if q.TryPush(999) {
		t.Fatalf("%s: push beyond capacity succeeded", name)
	}
	if q.Len() != capacity {
		t.Fatalf("%s: Len = %d, want %d", name, q.Len(), capacity)
	}
	for i := 0; i < capacity; i++ {
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("%s: pop %d got (%d,%v)", name, i, v, ok)
		}
	}
	if _, ok := q.TryPop(); ok {
		t.Fatalf("%s: drained queue still pops", name)
	}
	// Wraparound: push/pop interleaved past the ring boundary.
	for i := 0; i < 3*capacity; i++ {
		q.Push(i)
		v, ok := q.TryPop()
		if !ok || v != i {
			t.Fatalf("%s: wraparound pop %d got (%d,%v)", name, i, v, ok)
		}
	}
}

func TestFIFOSemantics(t *testing.T) {
	runFIFO(t, "SPSC", NewSPSC[int](16), 16)
	runFIFO(t, "MPSC", NewMPSC[int](16), 16)
	runFIFO(t, "Locked", NewLocked[int](16), 16)
}

func TestCapacityRounding(t *testing.T) {
	if got := NewSPSC[int](100).Cap(); got != 128 {
		t.Errorf("SPSC cap = %d, want 128", got)
	}
}

func TestSPSCConcurrent(t *testing.T) {
	const n = 50000
	q := NewSPSC[int](256)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
		}
	}()
	// Consumer verifies exact FIFO order: SPSC must never reorder or drop.
	for i := 0; i < n; i++ {
		for {
			v, ok := q.TryPop()
			if ok {
				if v != i {
					t.Fatalf("reordered: got %d at position %d", v, i)
				}
				break
			}
		}
	}
	wg.Wait()
	if q.Len() != 0 {
		t.Errorf("queue not empty at end: %d", q.Len())
	}
}

func TestMPSCConcurrentProducers(t *testing.T) {
	const producers = 8
	const perProducer = 5000
	q := NewMPSC[int](512)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(p*perProducer + i)
			}
		}(p)
	}
	// Single consumer: per-producer order must be preserved (the property
	// the profiler relies on: per-thread access order survives the queue),
	// and nothing may be lost or duplicated.
	seen := make([]int, producers*perProducer)
	lastPer := make([]int, producers)
	for p := range lastPer {
		lastPer[p] = -1
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for total := 0; total < producers*perProducer; {
			v, ok := q.TryPop()
			if !ok {
				continue
			}
			seen[v]++
			p := v / perProducer
			i := v % perProducer
			if i <= lastPer[p] {
				t.Errorf("producer %d order violated: %d after %d", p, i, lastPer[p])
				return
			}
			lastPer[p] = i
			total++
		}
	}()
	wg.Wait()
	<-done
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("value %d seen %d times", v, c)
		}
	}
}

func TestLockedConcurrent(t *testing.T) {
	const producers = 4
	const perProducer = 4000
	q := NewLocked[int](128)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push(p*perProducer + i)
			}
		}(p)
	}
	seen := make([]bool, producers*perProducer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for total := 0; total < producers*perProducer; {
			if v, ok := q.TryPop(); ok {
				if seen[v] {
					t.Errorf("duplicate %d", v)
					return
				}
				seen[v] = true
				total++
			}
		}
	}()
	wg.Wait()
	<-done
	for v, ok := range seen {
		if !ok {
			t.Fatalf("value %d lost", v)
		}
	}
}

func TestPointerReleaseForGC(t *testing.T) {
	// After TryPop, the ring must not retain the popped pointer.
	q := NewSPSC[*int](4)
	x := new(int)
	q.Push(x)
	q.TryPop()
	if q.buf[0] != nil {
		t.Error("SPSC retains popped pointer")
	}
	m := NewMPSC[*int](4)
	m.Push(x)
	m.TryPop()
	if m.cells[0].val != nil {
		t.Error("MPSC retains popped pointer")
	}
	l := NewLocked[*int](4)
	l.Push(x)
	l.TryPop()
	if l.buf[0] != nil {
		t.Error("Locked retains popped pointer")
	}
}

// claimItem is one element of a bulk-claim stress run.
type claimItem struct{ producer, run, idx, n int }

// TestMPSCBulkClaimStress: N producers push runs of random length — longer
// than the ring included — through Claim/Fill, interleaved with single Push
// and TryPush. Every run must arrive contiguous and in order, and each
// producer's runs in the order it claimed them.
func TestMPSCBulkClaimStress(t *testing.T) {
	const producers, runsEach, capacity = 6, 400, 64
	q := NewMPSC[claimItem](capacity)
	var wg sync.WaitGroup
	total := make([]int, producers)
	for p := 0; p < producers; p++ {
		rng := rand.New(rand.NewSource(int64(p) + 1))
		lens := make([]int, runsEach)
		for r := range lens {
			switch rng.Intn(4) {
			case 0:
				lens[r] = 1
			case 1:
				lens[r] = capacity + 1 + rng.Intn(2*capacity) // longer than the ring
			default:
				lens[r] = 2 + rng.Intn(capacity/2)
			}
			total[p] += lens[r]
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r, n := range lens {
				first := claimItem{producer: p, run: r, n: n}
				switch {
				case n == 1 && r%2 == 0:
					q.Push(first)
				case n == 1:
					for i := 0; !q.TryPush(first); i++ {
						Backoff(i)
					}
				default:
					pos := q.Claim(n)
					for i := 0; i < n; i++ {
						it := claimItem{producer: p, run: r, idx: i, n: n}
						q.Fill(pos+uint64(i), &it)
					}
				}
			}
		}(p)
	}
	want := 0
	for _, n := range total {
		want += n
	}
	var open *claimItem // the run being received
	lastRun := make([]int, producers)
	for i := range lastRun {
		lastRun[i] = -1
	}
	for got, idle := 0, 0; got < want; {
		it, ok := q.TryPop()
		if !ok {
			idle++
			Backoff(idle)
			continue
		}
		idle = 0
		got++
		if open == nil {
			if it.idx != 0 || it.run <= lastRun[it.producer] {
				t.Fatalf("run start out of order: %+v after run %d", it, lastRun[it.producer])
			}
			lastRun[it.producer] = it.run
			open = &claimItem{producer: it.producer, run: it.run, n: it.n}
		} else if it.producer != open.producer || it.run != open.run || it.idx != open.idx {
			t.Fatalf("run %+v interrupted by %+v", *open, it)
		}
		if open.idx++; open.idx == open.n {
			open = nil
		}
	}
	wg.Wait()
	if _, ok := q.TryPop(); ok || open != nil {
		t.Fatalf("leftovers: open run %v, queue non-empty %v", open, ok)
	}
}

// BenchmarkMPSCClaim prices one element through the ring at the MT
// pipeline's depth, by run length: 1 is Push, 512 an executor batch landing
// in one ring. Recorded by `make bench-queue`.
func BenchmarkMPSCClaim(b *testing.B) {
	for _, run := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("run%d", run), func(b *testing.B) {
			q := NewMPSC[[6]uint64](1 << 12) // 48-byte elements, like event.Access
			done := make(chan struct{})
			go func() {
				defer close(done)
				for got, idle := 0, 0; got < b.N; {
					if _, ok := q.TryPop(); ok {
						got, idle = got+1, 0
					} else {
						idle++
						Backoff(idle)
					}
				}
			}()
			var v [6]uint64
			b.ResetTimer()
			for left := b.N; left > 0; {
				n := min(run, left)
				pos := q.Claim(n)
				for i := 0; i < n; i++ {
					q.Fill(pos+uint64(i), &v)
				}
				left -= n
			}
			<-done
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
