package queue

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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
	runFIFO(t, "MPSC", mpscTry{NewMPSC[int](16)}, 16)
}

// mpscTry gives the run ring the TryPush the shared FIFO check wants; Len is
// exact here because the check is single-threaded.
type mpscTry struct{ *MPSC[int] }

func (q mpscTry) TryPush(v int) bool {
	if q.Len() == q.Cap() {
		return false
	}
	q.Push(v)
	return true
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
	if m.buf[0] != nil {
		t.Error("MPSC retains popped pointer")
	}
}

// TestPointerReleaseForGC, run side: Peek hands out pointers in place and the
// next Peek clears their slots.
func TestMPSCPeekClearsOnRelease(t *testing.T) {
	q := NewMPSC[*int](4)
	x := new(int)
	pos := q.Claim(2)
	part := q.Part(pos, 2)
	part[0], part[1] = x, x
	q.Publish(pos, 2)
	if got := q.Peek(); len(got) != 2 || got[0] != x || q.Len() != 2 {
		t.Fatalf("Peek = %v with Len %d, want the 2 elements of a 2-position run", got, q.Len())
	}
	if got := q.Peek(); len(got) != 0 || q.buf[0] != nil || q.buf[1] != nil || q.Len() != 0 {
		t.Fatalf("after release: Peek = %v, slots %v, Len %d", got, q.buf[:2], q.Len())
	}
}

// TestMPSCRunLayout walks one producer through the ring's corner cases by hand:
// gapless runs behind the head coalesce, a run splits at the end of the array,
// TryPop drains a run element by element, and coalescing stops at peekMax
// positions.
func TestMPSCRunLayout(t *testing.T) {
	q := NewMPSC[int](8)
	put := func(n, first int) (parts []int) {
		for pos := q.Claim(n); n > 0; {
			part := q.Part(pos, n)
			for i := range part {
				part[i] = first + i
			}
			q.Publish(pos, len(part))
			parts = append(parts, len(part))
			pos, n, first = pos+uint64(len(part)), n-len(part), first+len(part)
		}
		return parts
	}
	expect := func(what string, got []int, want ...int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
	expect("parts of 5 at 0", put(5, 10), 5)
	expect("parts of 2 at 5", put(2, 20), 2)
	expect("first Peek (two runs coalesced)", q.Peek(), 10, 11, 12, 13, 14, 20, 21)
	expect("second Peek (nothing published)", q.Peek())
	expect("parts of 4 at 7", put(4, 30), 1, 3) // into the 7 positions the second Peek freed
	expect("third Peek (to the end of the array)", q.Peek(), 30)
	for want := 31; want <= 33; want++ {
		if v, ok := q.TryPop(); !ok || v != want {
			t.Fatalf("TryPop = %d, %v; want %d", v, ok, want)
		}
	}
	if got := q.Peek(); len(got) != 0 || q.Len() != 0 {
		t.Fatalf("drained ring: Peek = %v, Len = %d", got, q.Len())
	}

	big := NewMPSC[int](1024)
	for i := 0; i < 600; i++ {
		big.Push(i)
	}
	if n := len(big.Peek()); n != peekMax {
		t.Errorf("Peek coalesced %d runs of one, want peekMax = %d", n, peekMax)
	}
	big = NewMPSC[int](1024)
	for pos, n := big.Claim(700), 700; n > 0; n = 0 {
		big.Publish(pos, len(big.Part(pos, n)))
	}
	if n := len(big.Peek()); n != 700 {
		t.Errorf("Peek cut a 700-element run to %d", n)
	}
}

// claimItem is one element of a run stress.
type claimItem struct{ producer, run, idx, n int }

// TestMPSCBulkClaimStress: N producers publish runs of random length 1 to
// 3x capacity through Claim/Part/Publish, interleaved with Push; the consumer
// switches between Peek and TryPop. Every run must arrive whole, contiguous and in
// order, each producer's runs in the order it claimed them, and every part
// must end with its run or at the end of the array.
func TestMPSCBulkClaimStress(t *testing.T) {
	const producers, runsEach, capacity = 6, 400, 64
	q := NewMPSC[claimItem](capacity)
	var wg sync.WaitGroup
	want := 0
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
			want += lens[r]
		}
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for r, n := range lens {
				if n == 1 {
					q.Push(claimItem{producer: p, run: r, n: 1})
					continue
				}
				pos, i := q.Claim(n), 0
				for i < n {
					part := q.Part(pos, n-i)
					if end := int(pos&q.mask) + len(part); len(part) != n-i && end != capacity {
						t.Errorf("part of %d at %d ends at slot %d: neither the run's end nor the array's", len(part), pos, end)
					}
					for k := range part {
						part[k] = claimItem{producer: p, run: r, idx: i + k, n: n}
					}
					q.Publish(pos, len(part))
					pos, i = pos+uint64(len(part)), i+len(part)
				}
			}
		}(p)
	}
	var open *claimItem // the run being received
	lastRun := make([]int, producers)
	for i := range lastRun {
		lastRun[i] = -1
	}
	take := func(it claimItem) {
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
	// A Peek frees what TryPop had left, so the consumer pops until the ring
	// runs dry before it peeks again.
	for got, idle, popping := 0, 0, false; got < want; {
		var batch []claimItem
		if popping {
			it, ok := q.TryPop()
			if popping = ok; ok {
				batch = []claimItem{it}
			}
		} else {
			batch = q.Peek()
			popping = got%7 == 0
		}
		if len(batch) == 0 {
			idle++
			Backoff(idle)
			continue
		}
		idle = 0
		for _, it := range batch {
			take(it)
		}
		got += len(batch)
	}
	wg.Wait()
	if _, ok := q.TryPop(); ok || open != nil || q.Len() != 0 {
		t.Fatalf("leftovers: open run %v, queue non-empty %v, Len %d", open, ok, q.Len())
	}
}

// BenchmarkMPSCClaim prices one element through the ring at the MT
// pipeline's depth — claim, copy in, publish; Peek on the other side — by run
// length: 1 is Push, 512 an executor batch landing in one ring.
func BenchmarkMPSCClaim(b *testing.B) {
	for _, run := range []int{1, 64, 512} {
		b.Run(fmt.Sprintf("run%d", run), func(b *testing.B) {
			q := NewMPSC[[6]uint64](1 << 12) // 48-byte elements, like event.Access
			done := make(chan struct{})
			go func() {
				defer close(done)
				for got, idle := 0, 0; got < b.N; {
					if n := len(q.Peek()); n > 0 {
						got, idle = got+n, 0
					} else {
						idle++
						Backoff(idle)
					}
				}
			}()
			src := make([][6]uint64, run)
			b.ResetTimer()
			for left := b.N; left > 0; {
				n := min(run, left)
				left -= n
				for pos := q.Claim(n); n > 0; {
					part := q.Part(pos, n)
					copy(part, src)
					q.Publish(pos, len(part))
					pos, n = pos+uint64(len(part)), n-len(part)
				}
			}
			<-done
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// parkItem is one element of the park stress: seq counts up per producer, -1
// marks its last.
type parkItem struct{ producer, seq int }

// TestMPSCParkStress drives both ends of a 16-position ring into parking:
// eight producers publish runs of 1 to 3x the ring in bursts with pauses
// between them, so the consumer drains the ring and parks, and the consumer
// stalls now and then, so the producers fill the ring and park. Every element
// must arrive once, in its producer's order. A lost wake-up leaves an end
// asleep with work waiting; the watchdog then fails the test instead of
// letting it hang.
func TestMPSCParkStress(t *testing.T) {
	const producers, capacity = 8, 16
	q := NewMPSC[parkItem](capacity)
	stop := time.Now().Add(1200 * time.Millisecond)
	// Each end checks now and then whether the other is parked.
	var consumerParked, producerParked atomic.Bool
	for p := 0; p < producers; p++ {
		go func(p int) {
			rng := rand.New(rand.NewSource(int64(p) + 1))
			seq := 0
			for time.Now().Before(stop) {
				for burst := 1 + rng.Intn(2); burst > 0; burst-- {
					n := 1 + rng.Intn(3*capacity)
					for pos, left := q.Claim(n), n; left > 0; {
						part := q.Part(pos, left)
						for k := range part {
							part[k] = parkItem{p, seq}
							seq++
						}
						q.Publish(pos, len(part))
						pos, left = pos+uint64(len(part)), left-len(part)
					}
				}
				// A pause between bursts, often long enough for the consumer
				// to drain the ring and park. It yields rather than sleeps,
				// so that publications land anywhere on the consumer's way
				// to its park, and in the window a lost wake-up needs.
				for i := rng.Intn(200); i > 0; i-- {
					runtime.Gosched()
				}
				if q.waiter.Load() != 0 {
					consumerParked.Store(true)
				}
			}
			q.Push(parkItem{p, -1})
		}(p)
	}

	done := make(chan struct{})
	var bad atomic.Value // the first ordering error; the consumer drains on regardless
	go func() {
		defer close(done)
		next := make([]int, producers)
		stalled := time.Now()
		for finished := 0; finished < producers; {
			b := q.Peek()
			if len(b) == 0 {
				q.Wait()
				continue
			}
			for _, it := range b {
				switch {
				case it.seq < 0:
					finished++
				case it.seq != next[it.producer]:
					bad.CompareAndSwap(nil, fmt.Sprintf("producer %d: element %d arrived when %d was due", it.producer, it.seq, next[it.producer]))
					next[it.producer] = it.seq + 1
				default:
					next[it.producer]++
				}
			}
			if time.Since(stalled) > 100*time.Millisecond {
				time.Sleep(20 * time.Millisecond) // a stalled consumer: the producers fill the ring and park
				stalled = time.Now()
				if q.wakeAt.Load() != math.MaxUint64 {
					producerParked.Store(true)
				}
			}
		}
	}()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("stream stalled with head %d, tail %d, consumer parked for position %d, producers for head %d: a lost wake-up",
			q.head.Load(), q.tail.Load(), int64(q.waiter.Load())-1, q.wakeAt.Load())
	}
	if msg := bad.Load(); msg != nil {
		t.Fatal(msg)
	}
	if !consumerParked.Load() || !producerParked.Load() {
		t.Errorf("parks seen: consumer %v, producers %v; the stress must park both ends", consumerParked.Load(), producerParked.Load())
	}
}
