package interp

import "sync"

// Barrier is a reusable (cyclic) barrier for Spawn bodies. It is shared by
// both executors so thread scheduling (arrival order, abort-on-error) stays
// identical regardless of producer.
type Barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	dead  bool
}

// NewBarrier returns a barrier for n threads.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all n threads have arrived, then releases the
// generation. It panics with a RuntimeError after Abort.
func (b *Barrier) Wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		panic(RuntimeError{"barrier aborted"})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.dead {
		b.cond.Wait()
	}
	if b.dead {
		panic(RuntimeError{"barrier aborted"})
	}
}

// Abort releases all waiters after a thread failed.
func (b *Barrier) Abort() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
