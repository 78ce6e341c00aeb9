package exp

import (
	"fmt"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/report"
	"ddprof/internal/workloads"
)

// ThroughputRow is one pipeline's events-per-second series, measured over the
// whole workload suite with the hot path (instance cache + producer fast
// path) disabled and enabled.
type ThroughputRow struct {
	Pipeline string
	Events   uint64  // read/write accesses profiled per replay
	SlowEPS  float64 // events/s, NoFastPath
	FastEPS  float64 // events/s, hot path enabled
	Speedup  float64 // FastEPS / SlowEPS
	CacheHit float64 // instance-cache hit rate of the fast run, percent
	DupPct   float64 // producer duplicate reads collapsed, percent of events
}

// Throughput measures raw profiling throughput (events/s) of the serial,
// parallel and MT pipelines over the captured access streams of the workload
// suite, with and without the hot path. This is the experiment behind the
// BenchmarkHotPath gate: the same streams, replayed rather than re-executed,
// so the interpreter is out of the measurement.
func Throughput(opt Options) (*report.Table, []ThroughputRow, error) {
	opt = opt.norm()

	type stream struct {
		name string
		meta *prog.Meta
		cap  *event.Recorder
	}
	var streams []stream
	for _, w := range workloads.All() {
		if !opt.want(w.Name) {
			continue
		}
		p := w.Build(opt.wcfg())
		c, _, err := captureRun(opt, p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s capture: %w", w.Name, err)
		}
		streams = append(streams, stream{name: w.Name, meta: p.Meta, cap: c})
	}
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("no workloads selected")
	}

	type pipeline struct {
		name string
		mk   func(meta *prog.Meta, noFast bool) core.Profiler
	}
	pipes := []pipeline{
		{"serial", func(meta *prog.Meta, noFast bool) core.Profiler {
			return core.NewSerial(core.Config{
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				NoFastPath:     noFast,
				Metrics:        Telemetry,
			})
		}},
		{"parallel-8T", func(meta *prog.Meta, noFast bool) core.Profiler {
			return core.NewParallel(core.Config{
				Workers:        8,
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				NoFastPath:     noFast,
				Metrics:        Telemetry,
			})
		}},
		{"mt-8T", func(meta *prog.Meta, noFast bool) core.Profiler {
			return core.NewMT(core.Config{
				Workers:        8,
				SlotsPerWorker: opt.SlotsPerWorker,
				Meta:           meta,
				NoFastPath:     noFast,
				Metrics:        Telemetry,
			})
		}},
	}

	var rows []ThroughputRow
	for _, pipe := range pipes {
		row := ThroughputRow{Pipeline: pipe.name}
		var hits, probes, dups uint64
		for _, noFast := range []bool{true, false} {
			var events uint64
			d, err := timeRun(opt.Reps, func() error {
				events, hits, probes, dups = 0, 0, 0, 0
				for _, s := range streams {
					res := replay(s.cap, pipe.mk(s.meta, noFast))
					events += res.Stats.Accesses
					hits += res.Stats.DepCacheHits
					probes += res.Stats.DepCacheProbes
					dups += res.Stats.DupCollapsed
				}
				return nil
			})
			if err != nil {
				return nil, nil, fmt.Errorf("%s replay: %w", pipe.name, err)
			}
			eps := float64(events) / d.Seconds()
			if noFast {
				row.SlowEPS = eps
			} else {
				row.FastEPS = eps
				row.Events = events
			}
		}
		if row.SlowEPS > 0 {
			row.Speedup = row.FastEPS / row.SlowEPS
		}
		if probes > 0 {
			row.CacheHit = 100 * float64(hits) / float64(probes)
		}
		if row.Events > 0 {
			row.DupPct = 100 * float64(dups) / float64(row.Events)
		}
		rows = append(rows, row)
	}

	tab := &report.Table{
		Title:   "Throughput: profiling events/s over the workload suite, hot path off vs on",
		Headers: []string{"Pipeline", "events", "slow ev/s", "fast ev/s", "speedup", "cache hit", "dups collapsed"},
	}
	for _, r := range rows {
		tab.AddRow(r.Pipeline, r.Events,
			fmt.Sprintf("%.0f", r.SlowEPS), fmt.Sprintf("%.0f", r.FastEPS),
			fmt.Sprintf("%.2fx", r.Speedup),
			fmt.Sprintf("%.1f%%", r.CacheHit), fmt.Sprintf("%.1f%%", r.DupPct))
	}
	tab.Notes = append(tab.Notes,
		"slow = NoFastPath (instance cache and producer duplicate filter disabled);",
		"streams are captured once and replayed, so interpreter time is excluded")
	return tab, rows, nil
}
