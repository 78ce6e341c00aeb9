// Package ddprof is a generic data-dependence profiler for sequential and
// parallel programs — a reproduction of Li, Jannesari, Wolf, "An Efficient
// Data-Dependence Profiler for Sequential and Parallel Programs" (IPDPS
// 2015).
//
// The profiler records pair-wise RAW/WAR/WAW (+INIT) data dependences with
// source location, variable name and thread ID, together with runtime
// control-flow information, for both sequential and multi-threaded target
// programs. Space overhead is bounded by signatures (fixed hashed slot
// arrays borrowed from transactional memory); time overhead is reduced by a
// lock-free parallel pipeline that distributes memory accesses over worker
// threads by address.
//
// Target programs are written in minilang, a small imperative IR executed
// by an instrumenting interpreter (the stand-in for the paper's LLVM
// instrumentation — Go has no native-code instrumentation path). A minimal
// session:
//
//	p := ddprof.NewProgram("demo")
//	p.MainFunc(func(b *ddprof.Block) {
//		b.Decl("sum", ddprof.Ci(0))
//		b.For("i", ddprof.Ci(0), ddprof.Ci(100), ddprof.Ci(1),
//			ddprof.LoopOpt{Name: "sum"}, func(l *ddprof.Block) {
//			l.Reduce("sum", ddprof.OpAdd, ddprof.V("i"))
//		})
//	})
//	res, _ := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeParallel, Workers: 8})
//	res.WriteDeps(os.Stdout)
//
// See examples/ for complete programs and cmd/ddexp for the paper's
// experiment suite.
package ddprof

import (
	"fmt"
	"io"

	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
)

// Program construction: the minilang builder surface.
type (
	// Program is a target program under construction or ready to profile.
	Program = minilang.Program
	// Block builds a statement list; see its methods.
	Block = minilang.Block
	// Expr is a minilang expression.
	Expr = minilang.Expr
	// LoopOpt carries per-loop metadata (name, OMP annotation).
	LoopOpt = minilang.LoopOpt
	// BinOp is a binary operator for Reduce/SetReduce.
	BinOp = minilang.BinOp
)

// Operators accepted by Block.Reduce and Block.SetReduce.
const (
	OpAdd = minilang.OpAdd
	OpMul = minilang.OpMul
)

// NewProgram starts an empty target program.
func NewProgram(name string) *Program { return minilang.New(name) }

// ParseTarget parses minilang source text into a target program — the text
// front-end alternative to the builder API. See minilang.ParseProgram for
// the syntax.
func ParseTarget(name, src string) (*Program, error) {
	return minilang.ParseProgram(name, src)
}

// Expression constructors, re-exported from minilang.
var (
	C     = minilang.C
	Ci    = minilang.Ci
	V     = minilang.V
	Idx   = minilang.Idx
	LenOf = minilang.LenOf
	Tid   = minilang.Tid
	Add   = minilang.Add
	Sub   = minilang.Sub
	Mul   = minilang.Mul
	Div   = minilang.Div
	IDiv  = minilang.IDiv
	Mod   = minilang.Mod
	BAnd  = minilang.BAnd
	BOr   = minilang.BOr
	Xor   = minilang.Xor
	Shl   = minilang.Shl
	Shr   = minilang.Shr
	Eq    = minilang.Eq
	Ne    = minilang.Ne
	Lt    = minilang.Lt
	Le    = minilang.Le
	Gt    = minilang.Gt
	Ge    = minilang.Ge
	And   = minilang.And
	Or    = minilang.Or
	Neg   = minilang.Neg
	Not   = minilang.Not
	CallE = minilang.CallE
)

// Mode selects the profiler architecture.
type Mode int

const (
	// ModeSerial profiles on the target's own thread (paper §III).
	ModeSerial Mode = iota
	// ModeParallel profiles sequential targets on worker threads that own
	// the addresses by Equation 1 (paper §IV): ModeMT's lock-free pipeline,
	// fed by the target's one thread, without the race check.
	ModeParallel
	// ModeMT profiles multi-threaded targets: thread-private event batches
	// handed over before every release operation, sync-epoch timestamps,
	// and data-race flagging (paper §V). A target that spawns threads runs
	// under ModeMT whatever mode was asked for (see Result.Mode): the other
	// two take their events from one thread only.
	ModeMT
)

// Config configures a profiling run.
type Config struct {
	// Mode defaults to ModeSerial; Profile overrides it with ModeMT for a
	// target that spawns threads.
	Mode Mode
	// Workers is the number of profiling threads (parallel modes;
	// default 8).
	Workers int
	// Slots is the signature's slot count, whatever the mode: a parallel
	// mode's workers share that one signature's slots between them, so every
	// mode profiles the same signature. 0 selects 2^21. Backend specs with
	// explicit slot parameters override it.
	Slots int
	// Backend selects the access-history store: "signature" (the default
	// when empty), "signature:slots=N" (k/m/g suffixes) or "perfect", the
	// exact per-word table that trades unbounded memory for zero false
	// positives. The
	// §III-B baselines, shadow memory and a hash table, are `ddexp stores`'.
	Backend string
	// SchedulerFuzz, when positive, makes the executor yield roughly every
	// N accesses per target thread (ModeMT only). On machines with fewer
	// cores than target threads this restores the interleavings real
	// parallel hardware exhibits. Race flagging does not need it: an
	// unsynchronized pair is flagged whatever the schedule.
	SchedulerFuzz int
}

// Result is a completed profile.
type Result struct {
	// Deps is the merged dependence set.
	Deps *dep.Set
	// Loops classifies every executed loop (parallelizable / reduction /
	// sequential).
	Loops []analysis.LoopReport
	// Accesses is the number of memory accesses profiled.
	Accesses uint64
	// Races is the number of dependences flagged as potential data races
	// (ModeMT only).
	Races int
	// Stats exposes pipeline counters (accesses, cache hits, store bytes).
	Stats core.RunStats
	// Mode is the mode the run used: Config.Mode, or ModeMT because the
	// target spawns threads.
	Mode Mode

	data analysis.Data
}

// Profile executes the program under the configured profiler and returns
// the merged result.
func Profile(p *Program, cfg Config) (*Result, error) {
	mode := cfg.Mode
	if mode < ModeSerial || mode > ModeMT {
		return nil, fmt.Errorf("ddprof: unknown mode %d", cfg.Mode)
	}
	// The serial and parallel profilers take events from one goroutine only,
	// so whether the target spawns threads decides the mode, not the caller.
	if len(minilang.Resolve(p).Spawns) > 0 {
		mode = ModeMT
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 8
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = 1 << 21
	}
	ccfg := core.Config{
		Workers:        workers,
		SlotsPerWorker: slots,
		Backend:        cfg.Backend,
		Meta:           p.Meta,
	}
	iopt := interp.Options{}
	switch mode {
	case ModeSerial:
		ccfg.Mode = core.ModeSerial
		ccfg.Workers = 1
	case ModeParallel:
		ccfg.Mode = core.ModeParallel
	case ModeMT:
		ccfg.Mode = core.ModeMT
		iopt.Timestamps = true
		iopt.YieldEvery = cfg.SchedulerFuzz
	}
	prof, err := core.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("ddprof: %w", err)
	}
	info, err := vm.Run(p, prof, iopt)
	if err != nil {
		return nil, err
	}
	res := prof.Flush()
	return &Result{
		Deps:     res.Deps,
		Loops:    analysis.DiscoverParallelism(p.Meta, res, info.LoopIters),
		Accesses: info.Accesses,
		Races:    analysis.CountRaces(res.Deps),
		Stats:    res.Stats,
		Mode:     mode,
		data:     analysis.Data{Program: p, Result: res, Info: info},
	}, nil
}

// ProfileUnion profiles several variants of a target (typically the same
// program built with different inputs) and merges all collected dependences
// — the paper's answer to input sensitivity (§I: "input sensitivity can be
// addressed by running the target program with changing inputs and computing
// the union of all collected dependences"). Loop reports are recomputed over
// the union: a loop is parallelizable only if no input exhibited a carried
// RAW.
func ProfileUnion(builds []func() *Program, cfg Config) (*Result, error) {
	if len(builds) == 0 {
		return nil, fmt.Errorf("ddprof: ProfileUnion needs at least one build")
	}
	var union *Result
	for _, build := range builds {
		res, err := Profile(build(), cfg)
		if err != nil {
			return nil, err
		}
		if union == nil {
			union = res
			continue
		}
		union.Deps.Merge(res.Deps)
		union.Accesses += res.Accesses
		union.Races += res.Races
		// Keep the pessimistic (union) loop verdicts: a loop must be clean
		// under every input.
		byName := make(map[string]int)
		for i, l := range union.Loops {
			byName[l.Loop.Name] = i
		}
		for _, l := range res.Loops {
			i, ok := byName[l.Loop.Name]
			if !ok {
				union.Loops = append(union.Loops, l)
				continue
			}
			u := &union.Loops[i]
			u.Iterations += l.Iterations
			u.CarriedRAW += l.CarriedRAW
			u.CarriedRAWRed += l.CarriedRAWRed
			u.CarriedWAR += l.CarriedWAR
			u.CarriedWAW += l.CarriedWAW
			u.Parallelizable = u.Parallelizable && l.Parallelizable
			u.Reduction = (u.Reduction || l.Reduction) && !u.Parallelizable &&
				u.CarriedRAW == u.CarriedRAWRed
		}
	}
	return union, nil
}

// RecordTrace executes the program once, writing its full access stream to
// w in the DDT2 trace format (internal/trace: about four bytes an access).
// The trace can be profiled offline many times with ProfileTrace — run once,
// analyze often. The recording hook is a trace.SyncWriter — a mutex around a
// trace.Writer, so multi-threaded targets record safely — and w receives
// whole records, in Writes of at most 64KiB, each time the Writer's slab
// fills and once more at the end. A target that spawns threads is recorded
// with its sync-epoch stamps, as Profile runs it under ModeMT, so
// ProfileTrace can flag its races; a spawn-free target's stamps are all 0.
func RecordTrace(p *Program, w io.Writer) (events uint64, err error) {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return 0, err
	}
	sw := trace.NewSyncWriter(tw)
	iopt := interp.Options{Timestamps: len(minilang.Resolve(p).Spawns) > 0}
	if _, err := vm.Run(p, sw, iopt); err != nil {
		return 0, err
	}
	if err := sw.Close(); err != nil {
		return 0, err
	}
	return sw.Count(), nil
}

// ProfileTrace replays a recorded DDT2 trace through a serial profiler with
// the configured store and returns the dependence set. Loop-carried
// classification needs the original program's loop table and is therefore
// not available from a bare trace; all dependences, counts and thread IDs
// are reproduced exactly, and with cfg.Mode ModeMT, which turns the race
// check on, the race flags too. A trace in the older DDT1 format is
// refused with trace.ErrDDT1: record it again.
func ProfileTrace(r io.Reader, cfg Config) (*dep.Set, error) {
	slots := cfg.Slots
	if slots <= 0 {
		slots = 1 << 21
	}
	ccfg := core.Config{
		SlotsPerWorker: slots,
		Backend:        cfg.Backend,
		RaceCheck:      cfg.Mode == ModeMT,
	}
	prof, err := core.New(ccfg)
	if err != nil {
		return nil, fmt.Errorf("ddprof: %w", err)
	}
	tr, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	for c := event.NewChunk(); ; c.Reset() {
		_, err := tr.NextBatch(c)
		prof.AccessBatch(c.Events, c.Ranges)
		if err == io.EOF {
			return prof.Flush().Deps, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Run executes the program natively (uninstrumented) and returns its final
// scalar variables — useful to check what the target computed.
func Run(p *Program) (map[string]float64, error) {
	info, err := vm.Run(p, nil, interp.Options{})
	if err != nil {
		return nil, err
	}
	return info.Vars, nil
}

// WriteDeps renders the dependences in the paper's text format (Figure 1
// for sequential targets, Figure 3 with thread IDs for ModeMT), including
// BGN/END control-flow records.
func (r *Result) WriteDeps(w io.Writer) error {
	mt := r.Mode == ModeMT
	return dep.Write(w, r.Deps, r.data.Program.Tab, r.data.Info.LoopRecords,
		dep.WriterOptions{Threads: mt, MarkRaces: mt})
}

// SaveBinary writes the profile (dependences, loop records, variable
// names) in the compact deterministic binary format; LoadProfile reads it
// back.
func (r *Result) SaveBinary(w io.Writer) error {
	return dep.Encode(w, r.Deps, r.data.Program.Tab, r.data.Info.LoopRecords)
}

// LoadProfile reads a binary profile written by Result.SaveBinary.
func LoadProfile(rd io.Reader) (*dep.Set, []dep.LoopRecord, error) {
	set, loops, _, err := dep.Decode(rd)
	return set, loops, err
}

// ParseProfile reads a text profile dump (the Figure 1/3 format produced by
// WriteDeps).
func ParseProfile(rd io.Reader) (*dep.Set, []dep.LoopRecord, error) {
	set, loops, _, err := dep.Parse(rd)
	return set, loops, err
}

// Data bundles the run for analysis plug-ins (analysis.Analysis, paper
// §VIII): the program, the profiler's result and the executor's run record.
func (r *Result) Data() *analysis.Data { return &r.data }

// Communication returns the producer/consumer communication matrix over
// the given number of target threads (paper §VII-B).
func (r *Result) Communication(threads int) *analysis.CommMatrix {
	return analysis.Communication(r.Deps, threads)
}

// ParallelizableLoops returns the names of loops whose profiled
// dependences permit parallelization (no loop-carried RAW).
func (r *Result) ParallelizableLoops() []string {
	var out []string
	for _, l := range r.Loops {
		if l.Parallelizable {
			out = append(out, l.Loop.Name)
		}
	}
	return out
}
