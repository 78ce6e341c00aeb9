package exp

import (
	"fmt"

	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/interp"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// Fig9Result is the communication-pattern experiment output.
type Fig9Result struct {
	Matrix  *analysis.CommMatrix
	Heatmap string
	// RacesFlagged counts dependences whose instances showed a timestamp
	// reversal (§V-B byproduct of the same run).
	RacesFlagged int
}

// Fig9 reproduces Figure 9: the communication pattern of water-spatial
// derived from the profiler's cross-thread RAW dependences. Each target
// thread exchanges halo cells with its ring neighbours, so the matrix shows
// a strong banded structure around the diagonal.
func Fig9(opt Options) (*report.Table, *Fig9Result, error) {
	opt = opt.norm()
	threads := 8
	p := workloads.WaterSpatial(workloads.Config{Scale: opt.Scale, Threads: threads})
	res, _, err := profile(p, core.Config{Mode: core.ModeMT, Workers: 8, SlotsPerWorker: opt.SlotsPerWorker}, interp.Options{Timestamps: true})
	if err != nil {
		return nil, nil, err
	}
	m := analysis.Communication(res.Deps, threads)

	races := analysis.CountRaces(res.Deps)

	out := &Fig9Result{Matrix: m, Heatmap: m.Heatmap(), RacesFlagged: races}
	tab := &report.Table{
		Title:   "Figure 9: communication pattern of water-spatial (RAW instances, producer x consumer)",
		Headers: []string{"producer\\consumer"},
	}
	for c := 0; c < threads; c++ {
		tab.Headers = append(tab.Headers, fmt.Sprintf("t%d", c))
	}
	for pr := 0; pr < threads; pr++ {
		cells := []any{fmt.Sprintf("t%d", pr)}
		for c := 0; c < threads; c++ {
			cells = append(cells, m.M[pr][c])
		}
		tab.AddRow(cells...)
	}
	tab.Notes = append(tab.Notes,
		"expected shape: strong diagonal band (halo exchange with ring neighbours)",
		fmt.Sprintf("cross-thread RAW volume: %d instances; dependences flagged as potential races: %d",
			m.CrossThread(), races))
	return tab, out, nil
}
