package exp

import (
	"fmt"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// BalanceRow reports worker-load imbalance (max/mean events per worker)
// under three distribution strategies for one benchmark.
type BalanceRow struct {
	Program string
	// Modulo is the plain addr%W rule (§IV, Equation 1).
	Modulo float64
	// Redistributed adds the §IV-A heavy-hitter migration (dealRedistributed).
	Redistributed float64
	Migrations    uint64
	// RoundRobin deals the stream's chunks to the workers in turn (§VI-B
	// future work: untyped profiling needs no per-address ownership).
	RoundRobin float64
}

// dealRoundRobin deals evs' data accesses, a chunk at a time, to w workers in
// turn and returns what each received: the balance of order-free dealing. The
// chunk here and in dealRedistributed stays event.ChunkSize, the decoder's
// 4096-event carrier the table was measured with, not the pipeline's own
// 512-event chunk.
func dealRoundRobin(evs []event.Access, w int) []uint64 {
	counts := make([]uint64, w)
	n := 0
	for i := range evs {
		if evs[i].Kind <= event.Write {
			counts[n/event.ChunkSize%w]++
			n++
		}
	}
	return counts
}

// migration is one planned address move.
type migration struct {
	addr uint64
	to   int
}

// planRebalance decides which of the top heavy hitters to migrate so they
// spread round-robin over the workers (§IV-A); nil when the current owners
// are already within one address of even.
func planRebalance(top []uint64, w int, owner func(uint64) int) []migration {
	if len(top) == 0 {
		return nil
	}
	counts := make([]int, w)
	for _, a := range top {
		counts[owner(a)]++
	}
	min, max := counts[0], counts[0]
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min <= 1 {
		return nil // already even
	}
	var moves []migration
	for rank, addr := range top {
		want := rank % w
		if owner(addr) != want {
			moves = append(moves, migration{addr: addr, to: want})
		}
	}
	return moves
}

// dealRedistributed deals evs' data accesses to w workers by the modulo rule
// of Equation 1 with the paper's §IV-A redistribution on top, and returns what
// each worker received and how many addresses moved: every 16th access is
// offered to a heavy-hitter sketch, and every `every` chunks' worth of routed
// events the top ten are re-dealt round-robin if their owners are uneven, a
// redirect map overriding the modulo rule from then on ("redistribution rules
// are stored in a map and have higher priority than the modulo function").
// Only ownership is simulated — counting needs no signature state to move.
// every = 0 is the plain modulo deal, the profilers' own ownership.
func dealRedistributed(evs []event.Access, w, every int) (counts []uint64, migrations uint64) {
	counts = make([]uint64, w)
	fill := make([]int, w) // events in each worker's open chunk
	redirect := make(map[uint64]int)
	owner := func(addr uint64) int {
		if to, ok := redirect[addr]; ok {
			return to
		}
		return int((addr >> 3) % uint64(w))
	}
	heavy := newHeavySketch(64)
	var sampled uint64
	chunks := 0
	for i := range evs {
		a := &evs[i]
		to := owner(a.Addr)
		if a.Kind <= event.Write {
			counts[to]++
			if sampled++; sampled%16 == 0 {
				heavy.Offer(a.Addr)
			}
		}
		if fill[to]++; fill[to] < event.ChunkSize {
			continue
		}
		fill[to] = 0
		if chunks++; chunks == every {
			chunks = 0
			for _, mv := range planRebalance(heavy.Top(10), w, owner) {
				redirect[mv.addr] = mv.to
				migrations++
			}
		}
	}
	return counts, migrations
}

// Balance quantifies the load-balancing discussion of §IV-A and §VI-B:
// how evenly the profiling work spreads over 8 workers under the modulo
// rule (the profiler's own), with heavy-hitter redistribution checked every
// 16 chunks, and with order-free round-robin dealing — the last two as
// routing arithmetic over the captured stream. Unlike the timing figures this
// is deterministic and machine-independent.
func Balance(opt Options) (*report.Table, []BalanceRow, error) {
	opt = opt.norm()
	const workers = 8
	var rows []BalanceRow
	// The paper names kMeans, rgbyuv, rotate, bodytrack and h264dec as the
	// benchmarks whose imbalanced access patterns hurt scaling.
	names := []string{"kmeans", "rgbyuv", "rotate", "bodytrack", "h264dec", "CG", "FT"}
	for _, name := range names {
		if !opt.want(name) {
			continue
		}
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		row := BalanceRow{Program: name}

		res, _, err := profile(w.Build(opt.wcfg()), core.Config{
			Mode:    core.ModeParallel,
			Workers: workers,
			Backend: "perfect",
		}, interp.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Modulo = core.Imbalance(res.WorkerEvents)

		cap, _, err := captureRun(w.Build(opt.wcfg()))
		if err != nil {
			return nil, nil, fmt.Errorf("%s capture: %w", name, err)
		}
		dealt, migrations := dealRedistributed(cap.Events(), workers, 16)
		row.Redistributed, row.Migrations = core.Imbalance(dealt), migrations
		row.RoundRobin = core.Imbalance(dealRoundRobin(cap.Events(), workers))
		rows = append(rows, row)
	}

	tab := &report.Table{
		Title:   "Load balance (§IV-A, §VI-B): worker imbalance = max/mean events over 8 workers",
		Headers: []string{"Program", "modulo", "modulo+redistribution", "migrations", "round-robin (untyped)"},
	}
	for _, r := range rows {
		tab.AddRow(r.Program, fmt.Sprintf("%.2f", r.Modulo),
			fmt.Sprintf("%.2f", r.Redistributed), r.Migrations,
			fmt.Sprintf("%.2f", r.RoundRobin))
	}
	tab.Notes = append(tab.Notes,
		"1.00 = perfect balance; modulo is the profiler's own ownership, the other two columns are dealing",
		"arithmetic over the captured stream: redistribution left the pipelines (EXPERIMENTS.md decision",
		"record), and untyped profiling would not need per-address ordering (the paper's §VI-B future work)")
	return tab, rows, nil
}
