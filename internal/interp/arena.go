package interp

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"ddprof/internal/event"
)

// Arena is the simulated address space. Every minilang scalar and array
// element occupies one 8-byte word; word w lives at byte address
// baseAddr + w*8. Freed ranges are recycled (exact-size FreeLists), so
// address reuse after deallocation — the case variable-lifetime analysis
// exists for — actually happens.
//
// Values are stored as float64 bits through atomic loads/stores: target
// programs are allowed to race (that is §V-B's subject), and atomics keep
// such logical races from being undefined behaviour in the host process.
//
// The arena is exported because both executors — the tree-walking
// interpreter here and the bytecode VM in internal/vm — must draw simulated
// addresses from the same deterministic allocator for their event streams to
// be byte-identical.
type Arena struct {
	mu    sync.Mutex
	pages [maxPages]*arenaPage
	next  uint64 // next unallocated word index
}

// FreeList is one target thread's freed runs (words -> base word indices),
// its own to reuse. A run changes threads only at a join (Adopt): the old
// owner's events, buffered in its event.Batcher, are handed over by then.
type FreeList map[int][]uint64

const (
	pageWordsBits = 16
	pageWords     = 1 << pageWordsBits // 64 Ki words = 512 KiB per page
	maxPages      = 4096               // 2 GiB simulated memory ceiling
	baseAddr      = uint64(0x10000000)
)

type arenaPage [pageWords]uint64

// pagePool recycles arena pages across runs. Allocating and zeroing a fresh
// 512 KiB page per run is the single largest allocation either executor
// makes; a pooled page is always fully zero, and Recycle restores that
// invariant by clearing only the words a run actually touched.
var pagePool = sync.Pool{New: func() any { return new(arenaPage) }}

// NewArena returns an empty simulated address space.
func NewArena() *Arena {
	return &Arena{}
}

// Recycle returns the arena's pages to the process-wide pool and leaves the
// arena empty. Call it only when nothing references simulated memory any
// more — after a run has completed and its results have been extracted.
func (a *Arena) Recycle() {
	a.mu.Lock()
	defer a.mu.Unlock()
	for pg := uint64(0); pg*pageWords < a.next; pg++ {
		p := a.pages[pg]
		if p == nil {
			continue
		}
		n := a.next - pg*pageWords
		if n > pageWords {
			n = pageWords
		}
		clear(p[:n])
		a.pages[pg] = nil
		pagePool.Put(p)
	}
	a.next = 0
}

// Alloc reserves a run of words — the thread's last freed of that size, if
// any — and returns its base word index.
func (a *Arena) Alloc(free FreeList, words int) uint64 {
	if words <= 0 {
		words = 1
	}
	if lst := free[words]; len(lst) > 0 {
		free[words] = lst[:len(lst)-1]
		return lst[len(lst)-1]
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	base := a.next
	a.next += uint64(words)
	lastPage := (a.next - 1) >> pageWordsBits
	if lastPage >= maxPages {
		panic(RuntimeError{"simulated memory exhausted"})
	}
	for pg := base >> pageWordsBits; pg <= lastPage; pg++ {
		if a.pages[pg] == nil {
			a.pages[pg] = pagePool.Get().(*arenaPage)
		}
	}
	return base
}

// Release recycles a run for the thread's future allocations of the same size.
func (f FreeList) Release(base uint64, words int) { f[words] = append(f[words], base) }

// Adopt moves the runs of joined threads to f, the joining thread's.
func (f FreeList) Adopt(joined ...FreeList) {
	for _, j := range joined {
		for words, lst := range j {
			f[words] = append(f[words], lst...)
		}
	}
}

// PlainLoad and PlainStore are non-atomic variants of Load/Store for
// executors that can prove the target program is single-threaded (no spawn
// blocks — the bytecode compiler knows this statically). They touch the
// same cells, so values and simulated addresses are unchanged; skipping the
// atomic store's full memory barrier is free speed on the hot path. Never
// mix them with concurrent target threads.
func (a *Arena) PlainLoad(w uint64) float64 {
	p := a.pages[w>>pageWordsBits]
	return math.Float64frombits(p[w&(pageWords-1)])
}

// PlainStore writes the word at index w without an atomic barrier.
func (a *Arena) PlainStore(w uint64, v float64) {
	p := a.pages[w>>pageWordsBits]
	p[w&(pageWords-1)] = math.Float64bits(v)
}

// Load reads the word at index w.
func (a *Arena) Load(w uint64) float64 {
	p := a.pages[w>>pageWordsBits]
	return math.Float64frombits(atomic.LoadUint64(&p[w&(pageWords-1)]))
}

// Store writes the word at index w.
func (a *Arena) Store(w uint64, v float64) {
	p := a.pages[w>>pageWordsBits]
	atomic.StoreUint64(&p[w&(pageWords-1)], math.Float64bits(v))
}

// AddrOf converts a word index to a simulated byte address.
func AddrOf(w uint64) uint64 { return baseAddr + w*8 }

// RuntimeError is a minilang runtime error (out-of-bounds index, unknown
// variable, …) carried by panic to the Run boundary of either executor.
type RuntimeError struct{ Msg string }

func (e RuntimeError) Error() string { return "minilang runtime error: " + e.Msg }

// AsRuntimeError is the RuntimeError a recovered panic value ends a run with,
// if it is one: an executor's own, or event.Batcher's refusal of a stamp past
// event.MaxTS.
func AsRuntimeError(r any) (RuntimeError, bool) {
	switch e := r.(type) {
	case RuntimeError:
		return e, true
	case event.StampLimit:
		return RuntimeError{e.Error()}, true
	}
	return RuntimeError{}, false
}

// CheckSpawn panics with a RuntimeError before a spawn of threads starts a
// thread whose ID a store slot cannot keep (past event.MaxThread).
func CheckSpawn(threads int) {
	if threads > event.MaxThread+1 {
		panic(RuntimeError{fmt.Sprintf("spawn of %d threads: thread %d is past %d, the widest thread ID a store slot keeps (event.MaxThread)",
			threads, event.MaxThread+1, event.MaxThread)})
	}
}
