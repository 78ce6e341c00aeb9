// Package event defines the memory-access event stream the profiler consumes.
//
// The executors (internal/interp, internal/vm) report every memory access
// through a per-thread Batcher; the trace decoder hands a remote session's
// accesses over in fixed size Chunks. Both reach a profiler through
// BatchHook.AccessBatch.
package event

import "ddprof/internal/loc"

// Kind classifies a memory-access event.
type Kind uint8

// The numeric values are pinned: they are the kind bytes of DDT2 define,
// control and range records. 3, 4 and 6 were the kinds of the retired run-time
// redistribution protocol, 8 the retired heavy-hitter promotion hint and 9 the
// retired epoch mark; they stay reserved and the decoders refuse them.
const (
	// Read is a load from memory.
	Read Kind = 0
	// Write is a store to memory.
	Write Kind = 1
	// Remove instructs the owning worker to forget an address. Emitted by
	// variable-lifetime analysis when storage is deallocated (paper §III-B:
	// "addresses that become obsolete after deallocating the corresponding
	// variable are removed from signatures").
	Remove Kind = 2
	// Flush instructs a worker to finish processing and acknowledge; used at
	// end-of-stream.
	Flush Kind = 5
	// RangeRef marks a batch slot standing for a strided run (SD3-style
	// stride compression, §II related work). The slot's Addr field is the
	// index into the range table handed over with the batch (a Chunk's
	// Ranges); every other field is unused. The run expands, in element
	// order, at the slot's position.
	RangeRef Kind = 7
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Remove:
		return "remove"
	case Flush:
		return "flush"
	case RangeRef:
		return "range"
	}
	return "invalid"
}

// Access is one instrumented memory access (or a pipeline control event).
//
// Loop-carried classification (Table II) needs iteration context: CtxID
// identifies the static stack of loops enclosing the access, and IterVec packs
// the iteration counters of up to four innermost enclosing loops (16 bits
// each, deepest loop in the low bits). Timestamps are only populated when
// profiling multi-threaded targets (paper §V-B).
type Access struct {
	Addr    uint64        // simulated memory address
	TS      uint64        // the thread's sync epoch (MT-target mode only; see Batcher)
	IterVec uint64        // packed iteration vector of enclosing loops
	Loc     loc.SourceLoc // source location of the access
	Var     loc.VarID     // variable accessed
	CtxID   uint32        // static loop-context ID (0 = outside any loop)
	Thread  int32         // target-program thread ID
	Kind    Kind
	Flags   Flags
}

// Flags carry per-access attributes.
type Flags uint8

const (
	// FlagReduction marks an access belonging to a reduction statement
	// (x = x ⊕ expr, ⊕ commutative-associative). A loop-carried RAW between
	// two reduction accesses of the same statement is removable by a
	// reduction transformation, which parallelism discovery reports
	// separately.
	FlagReduction Flags = 1 << 0
	// FlagInduction marks an induction-variable update (i = i + step at a
	// loop header). Its carried self-RAW is loop control, not a
	// parallelism-preventing dependence.
	FlagInduction Flags = 1 << 1
)

// Range is a compressed strided run: Count accesses by one instruction whose
// addresses advance by a fixed stride. Element j (0 <= j < Count) stands for
// the point access
//
//	Addr    = Base + j*Stride      (wrapping uint64 arithmetic)
//	IterVec = IterVec + j*IterDelta
//
// with every other field (TS included) shared by all elements.
// Stride is a wrapping delta, so descending runs are Stride = -8 cast to
// uint64; Stride = 0 encodes repeated accesses to one address. A range is
// shorthand for its elements in order at its position in the stream, and the
// profilers treat it as exactly that.
type Range struct {
	Base      uint64
	Stride    uint64 // wrapping per-element address delta
	TS        uint64 // shared by all elements (MT timestamps never compress)
	IterVec   uint64 // packed iteration vector of the first element
	IterDelta uint64 // wrapping per-element IterVec delta
	Loc       loc.SourceLoc
	Var       loc.VarID
	CtxID     uint32
	Count     uint32
	Thread    int32
	Kind      Kind
	Flags     Flags
}

// At expands element j of the run into a point access.
func (r *Range) At(j uint32) Access {
	return Access{
		Addr:    r.Base + uint64(j)*r.Stride,
		TS:      r.TS,
		IterVec: r.IterVec + uint64(j)*r.IterDelta,
		Loc:     r.Loc,
		Var:     r.Var,
		CtxID:   r.CtxID,
		Thread:  r.Thread,
		Kind:    r.Kind,
		Flags:   r.Flags,
	}
}

// Last returns the address of the final element.
func (r *Range) Last() uint64 {
	if r.Count == 0 {
		return r.Base
	}
	return r.Base + uint64(r.Count-1)*r.Stride
}

// ChunkSize is the number of accesses per decoded Chunk (paper §IV: "the main
// thread ... collects memory accesses in chunks, whose size can be
// configured"); 4096 events amortize the decoder's per-batch cost (512 here
// cost remote-session ≈ 7 %). The pipelines route a batch in BatchSize
// segments.
const ChunkSize = 4096

// MaxRangesPerChunk bounds the per-chunk range table: a decoded batch ends
// when either table is full.
const MaxRangesPerChunk = 256

// Chunk is a fixed-capacity batch of decoded accesses. A slot in Events holds
// either a point access or — when Kind is RangeRef — a reference (by Addr)
// into the Ranges side table.
type Chunk struct {
	Events []Access
	Ranges []Range
	buf    [ChunkSize]Access
	rbuf   [MaxRangesPerChunk]Range
}

// NewChunk returns an empty chunk with the default capacity.
func NewChunk() *Chunk {
	c := &Chunk{}
	c.Events = c.buf[:0]
	c.Ranges = c.rbuf[:0]
	return c
}

// Append adds an access; the caller must check Full first.
func (c *Chunk) Append(a Access) {
	c.Events = append(c.Events, a)
}

// AppendRange adds a range to the side table and returns its index; the
// caller must check RangesFull first and install a RangeRef slot referencing
// the returned index.
func (c *Chunk) AppendRange(r Range) int {
	c.Ranges = append(c.Ranges, r)
	return len(c.Ranges) - 1
}

// Full reports whether the chunk has reached capacity.
func (c *Chunk) Full() bool { return len(c.Events) == cap(c.Events) }

// RangesFull reports whether the range side table has reached capacity.
func (c *Chunk) RangesFull() bool { return len(c.Ranges) == cap(c.Ranges) }

// Len returns the number of buffered slots (a RangeRef slot counts once).
func (c *Chunk) Len() int { return len(c.Events) }

// Reset empties the chunk for reuse.
func (c *Chunk) Reset() {
	c.Events = c.buf[:0]
	c.Ranges = c.rbuf[:0]
}

// PackIterVec packs the iteration counters of the enclosing loops, deepest
// last in iters, into a 64-bit vector: the deepest loop occupies bits 0–15,
// its parent bits 16–31, and so on. Only the four innermost loops are kept and
// counters are truncated to 16 bits, which is exact for the workloads in this
// repository. Beyond that it is wrong, not conservative: iterations i and
// i+65,536 compare equal, so a dependence carried across them is reported as
// not carried, and a fifth enclosing loop is not seen at all (ROADMAP 7b).
func PackIterVec(iters []uint32) uint64 {
	var v uint64
	n := len(iters)
	for d := 0; d < 4 && d < n; d++ {
		// d=0 is the deepest (last) loop.
		v |= uint64(uint16(iters[n-1-d])) << (16 * d)
	}
	return v
}

// IterAt extracts the 16-bit iteration counter at depth-from-innermost d
// (0 = innermost) from a packed vector.
func IterAt(vec uint64, d int) uint16 {
	if d < 0 || d > 3 {
		return 0
	}
	return uint16(vec >> (16 * d))
}
