// Package analysis is the post-pass layer over a finished profile: the two
// dependence-based analyses the paper demonstrates (§VII) — discovery of
// potential loop parallelism (the DiscoPoP use case) and detection of
// communication patterns in multi-threaded code — the §VI-B section view, and
// the §VIII plug-in contract (Analysis, RunAll, Builtins) they are served
// through.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/prog"
)

// LoopReport is the parallelism verdict for one static loop.
type LoopReport struct {
	Loop       prog.Loop
	Iterations uint64
	// Carried dependence counts observed for this loop.
	CarriedRAW    int
	CarriedRAWRed int
	CarriedWAR    int
	CarriedWAW    int
	// Parallelizable means no carried RAW: iterations can run concurrently
	// (carried WAR/WAW are removable by privatization).
	Parallelizable bool
	// Reduction means every carried RAW joins two accesses of the same
	// reduction statement: the loop parallelizes with a reduction clause.
	Reduction bool
	// DoacrossDistance is the smallest carried-RAW iteration gap: a value
	// d >= 2 means up to d consecutive iterations can overlap (DOACROSS /
	// wavefront execution with synchronization every d iterations), even
	// though the loop is not plainly parallelizable. 0 or 1 means no such
	// headroom.
	DoacrossDistance uint32
}

// DiscoverParallelism classifies every executed loop of the program from the
// profiling result (§VII-A). iters supplies per-loop iteration counts from
// the interpreter; loops that never ran are skipped.
func DiscoverParallelism(meta *prog.Meta, res *core.Result, iters map[prog.LoopID]uint64) []LoopReport {
	var out []LoopReport
	for _, l := range meta.Loops() {
		n, ran := iters[l.ID]
		if !ran {
			continue
		}
		r := LoopReport{Loop: l, Iterations: n, Parallelizable: true}
		if ld := res.Loops[l.ID]; ld != nil {
			r.CarriedRAW = ld.CarriedRAW
			r.CarriedRAWRed = ld.CarriedRAWRed
			r.CarriedWAR = ld.CarriedWAR
			r.CarriedWAW = ld.CarriedWAW
			r.Parallelizable = ld.CarriedRAW == 0
			r.Reduction = ld.CarriedRAW > 0 && ld.CarriedRAWRed == ld.CarriedRAW
			if ld.CarriedRAW > 0 {
				r.DoacrossDistance = ld.MinRAWDist
			}
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Loop.ID < out[j].Loop.ID })
	return out
}

// CountIdentified returns Table II's columns: how many loops are
// OMP-annotated and how many of those the dependences identify as
// parallelizable.
func CountIdentified(reports []LoopReport) (omp, identified int) {
	for _, r := range reports {
		if !r.Loop.OMP {
			continue
		}
		omp++
		if r.Parallelizable {
			identified++
		}
	}
	return omp, identified
}

// IdentifiedSet returns the names of OMP loops identified as parallelizable,
// for cross-checking that two profiler configurations agree loop-by-loop
// (Table II's "sig identifies exactly the same loops as DP" claim).
func IdentifiedSet(reports []LoopReport) map[string]bool {
	out := make(map[string]bool)
	for _, r := range reports {
		if r.Loop.OMP && r.Parallelizable {
			out[r.Loop.Name] = true
		}
	}
	return out
}

// CountRaces returns the number of dependences with at least one instance
// whose timestamps reversed — the §V-B potential data races.
func CountRaces(deps *dep.Set) int {
	n := 0
	deps.Range(func(_ dep.Key, st dep.Stats) bool {
		if st.Reversed {
			n++
		}
		return true
	})
	return n
}

// CommMatrix is the producer/consumer communication matrix of §VII-B:
// M[p][c] counts RAW dependence instances whose source (producer) ran on
// thread p and whose sink (consumer) on thread c.
type CommMatrix struct {
	Threads int
	M       [][]uint64
}

// Communication derives the matrix from profiled dependences: "knowing the
// communication pattern ... can be important to discover performance
// bottlenecks" — producer-consumer behaviour is a read-after-write relation,
// so the matrix falls directly out of the RAW records with thread IDs.
func Communication(deps *dep.Set, threads int) *CommMatrix {
	m := &CommMatrix{Threads: threads, M: make([][]uint64, threads)}
	for i := range m.M {
		m.M[i] = make([]uint64, threads)
	}
	deps.Range(func(k dep.Key, st dep.Stats) bool {
		if k.Type != dep.RAW {
			return true
		}
		p, c := int(k.SrcThread), int(k.SinkThread)
		if p >= 0 && p < threads && c >= 0 && c < threads {
			m.M[p][c] += st.Count
		}
		return true
	})
	return m
}

// CrossThreadBytes sums the off-diagonal communication volume.
func (m *CommMatrix) CrossThread() uint64 {
	var n uint64
	for p := range m.M {
		for c, v := range m.M[p] {
			if p != c {
				n += v
			}
		}
	}
	return n
}

// Heatmap renders the matrix the way Figure 9 presents it: rows are
// producer threads, columns consumer threads, darker cells mean stronger
// communication. Intensity is normalized to the off-diagonal maximum so the
// self-communication diagonal does not wash out the pattern.
func (m *CommMatrix) Heatmap() string {
	shades := []byte(" .:-=+*#%@")
	var max uint64
	for p := range m.M {
		for c, v := range m.M[p] {
			if p != c && v > max {
				max = v
			}
		}
	}
	if max == 0 {
		max = 1
	}
	var b strings.Builder
	b.WriteString("     ")
	for c := 0; c < m.Threads; c++ {
		fmt.Fprintf(&b, "%3d", c)
	}
	b.WriteString("   (consumer)\n")
	for p := 0; p < m.Threads; p++ {
		fmt.Fprintf(&b, "%4d ", p)
		for c := 0; c < m.Threads; c++ {
			v := m.M[p][c]
			idx := int(v * uint64(len(shades)-1) / max)
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			b.WriteString("  ")
			b.WriteByte(shades[idx])
		}
		b.WriteByte('\n')
	}
	b.WriteString("(producer)\n")
	return b.String()
}
