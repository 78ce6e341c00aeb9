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
	// Redistributed adds the §IV-A heavy-hitter migration.
	Redistributed float64
	Migrations    uint64
	// RoundRobin deals the stream's chunks to the workers in turn (§VI-B
	// future work: untyped profiling needs no per-address ownership).
	RoundRobin float64
}

// dealRoundRobin deals evs' data accesses, a chunk at a time, to w workers in
// turn and returns what each received: the balance of order-free dealing.
func dealRoundRobin(evs []event.Access, w int) []uint64 {
	counts := make([]uint64, w)
	n := 0
	for i := range evs {
		if evs[i].Kind <= event.Write {
			counts[n/event.ChunkSize%w] += 1 + uint64(evs[i].Rep)
			n++
		}
	}
	return counts
}

// Balance quantifies the load-balancing discussion of §IV-A and §VI-B:
// how evenly the profiling work spreads over 8 workers under the modulo
// rule, with heavy-hitter redistribution, and with order-free round-robin
// dealing. Unlike the timing figures this is deterministic and
// machine-independent.
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

		run := func(redistribute int) (*core.Result, error) {
			res, _, err := profile(w.Build(opt.wcfg()), core.Config{
				Mode:              core.ModeParallel,
				Workers:           workers,
				Backend:           "perfect",
				RedistributeEvery: redistribute,
			}, interp.Options{})
			return res, err
		}
		res, err := run(0)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Modulo = core.Imbalance(res.WorkerEvents)

		res, err = run(16)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		row.Redistributed = core.Imbalance(res.WorkerEvents)
		row.Migrations = res.Stats.Migrations

		cap, _, err := captureRun(w.Build(opt.wcfg()))
		if err != nil {
			return nil, nil, fmt.Errorf("%s round-robin: %w", name, err)
		}
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
		"1.00 = perfect balance; the round-robin column is dealing arithmetic over the captured",
		"stream: untyped profiling would not need per-address ordering (the paper's §VI-B future work)")
	return tab, rows, nil
}
