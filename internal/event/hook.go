package event

// Hook receives one event per instrumented memory access. It is the single
// contract between the instrumentation producers (the tree-walking
// interpreter and the bytecode VM) and every consumer: the trace writer and
// the experiment capture buffers implement it, and core.Serial, core.Parallel
// and core.MT its bulk form, BatchHook, which the producers prefer.
type Hook interface {
	Access(a Access)
}

// HookFunc adapts a plain function to a Hook.
type HookFunc func(a Access)

// Access implements Hook.
func (f HookFunc) Access(a Access) { f(a) }

// Recorder is a Hook that buffers the full access stream so one target run
// can be replayed into many profiler configurations (or compared against
// another producer's stream) without re-executing the target. It also
// counts distinct read/write addresses, the denominator of the paper's
// Table I. Not safe for concurrent callers; wrap sequential-target runs
// only, or serialize upstream.
type Recorder struct {
	events []Access
	seen   map[uint64]struct{}
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{seen: make(map[uint64]struct{})}
}

// Access implements Hook.
func (r *Recorder) Access(a Access) {
	r.events = append(r.events, a)
	if a.Kind == Read || a.Kind == Write {
		r.seen[a.Addr] = struct{}{}
	}
}

// Events returns the recorded stream, in arrival order.
func (r *Recorder) Events() []Access { return r.events }

// Addresses returns the number of distinct addresses touched.
func (r *Recorder) Addresses() int { return len(r.seen) }
