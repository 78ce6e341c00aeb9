package main

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"ddprof/internal/stats"
)

// repetition is one pass over the workload's programs: the unit of work a
// run repeats, and one operation in the run's attempted/failed count.
type repetition struct {
	wall, cpu       time.Duration // summed Profile-to-DDP1 intervals, as measured
	wallRef, cpuRef float64       // and in seconds at nominal machine speed
	events          uint64
	accounted       uint64 // summed accountedBytes of the programs
	peakRSS         uint64 // summed per-profile VmHWM of the programs
	rates           stats.Rates
	profiles        []*profile // in target order
	fails           []string
}

// repeat profiles every target once and verifies each profile. want holds
// the accuracy each target must reproduce on a tight workload (nil entries
// are filled from this repetition).
func (e *env) repeat(tr *tracer, want []*stats.Rates) repetition {
	var r repetition
	root := tr.begin("repetition")
	defer tr.end(root)
	for i, t := range e.targets {
		p, err := e.profileOne(t, tr)
		if err != nil {
			r.fails = append(r.fails, fmt.Sprintf("%s/%s: %v", e.w.name, t.name, err))
			continue
		}
		v := e.verify(t, p, want[i])
		if want[i] == nil {
			want[i] = &v.rates
		}
		r.fails = append(r.fails, v.fails...)
		r.wall += p.wall
		r.cpu += p.cpu
		r.wallRef += p.wallRef
		r.cpuRef += p.cpuRef
		r.events += p.events
		r.accounted += p.accountedBytes()
		r.peakRSS += p.peakRSS
		r.rates.FP += v.rates.FP
		r.rates.FN += v.rates.FN
		r.rates.Measured += v.rates.Measured
		r.rates.Truth += v.rates.Truth
		r.profiles = append(r.profiles, p)
	}
	return r
}

// precision and recall are the never-zero forms of Table I's FPR and FNR,
// pooled over the workload's programs: 100 − FPR and 100 − FNR.
func precision(r stats.Rates) float64 {
	if r.Measured == 0 {
		return 0
	}
	return 100 * float64(r.Measured-r.FP) / float64(r.Measured)
}

func recall(r stats.Rates) float64 {
	if r.Truth == 0 {
		return 0
	}
	return 100 * float64(r.Truth-r.FN) / float64(r.Truth)
}

// metric is one reported number. Min, Max and N describe the timed
// repetitions behind a median; they are absent on single readings. Raw is
// the same statistic over the intervals as measured, where Value is over
// intervals corrected for the machine's speed.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
	Raw   float64 `json:"raw,omitempty"`
}

func medianOf(xs []float64, unit string) metric {
	lo, hi := minMax(xs)
	return metric{Value: median(xs), Unit: unit, Min: lo, Max: hi, N: len(xs)}
}

// measured adds the median of the uncorrected samples to a corrected metric.
func (m metric) measured(raw []float64) metric {
	m.Raw = median(raw)
	return m
}

// meanOf is for profiler_mb alone: in the parallel pipeline the chunk pool's
// size follows the schedule (1.4 to 18 MB per profile on wide-tight), and
// the mean over every profile of the run is the steadiest summary of it.
func meanOf(xs []float64, unit string) metric {
	lo, hi := minMax(xs)
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return metric{Value: sum / float64(len(xs)), Unit: unit, Min: lo, Max: hi, N: len(xs)}
}

// programStamp pins what a seed built and what every repetition was
// asserted against: the exact scale, the event count, and the dependences
// reported against the reference's.
type programStamp struct {
	Name      string  `json:"name"`
	Scale     float64 `json:"scale"`
	Events    uint64  `json:"events"`
	Addresses int     `json:"addresses,omitempty"`
	Slots     int     `json:"slots"`
	Deps      int     `json:"deps"`
	RefDeps   int     `json:"ref_deps"`
	FP        int     `json:"fp"`
	FN        int     `json:"fn"`
}

// report is everything one run prints.
type report struct {
	Workload  string            `json:"workload"`
	Pipeline  string            `json:"pipeline"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Stamp     stamp             `json:"stamp"`
	Programs  []programStamp    `json:"programs"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

func (rep *report) count(r repetition) {
	rep.Attempted++
	if len(r.fails) > 0 {
		rep.Failed++
		rep.Failures = append(rep.Failures, r.fails...)
	}
}

// options are the knobs of one run.
type options struct {
	seed    int64
	seconds float64 // how long the timed repetitions go on
	smoke   bool    // tiny programs, for the harness's own tests
	outDir  string  // unix socket and Chrome traces
}

// newReport sets a workload up setupTrials times — set-up is one sample per
// process otherwise, too few for a bound — keeps the last set-up, and starts
// the report with setup_s as the trials' median. Each trial is everything
// between process start and the first timed repetition: program build,
// reference computation, address census, daemon start and one discarded
// warm-up repetition. It returns the live environment and the accuracy
// every further repetition must reproduce.
func newReport(w workload, opt options, traced bool) (*report, *env, []*stats.Rates, error) {
	rep := &report{
		Workload: w.name, Pipeline: w.via.String(), Seed: opt.seed, Traced: traced,
		Stamp: newStamp(), Metrics: make(map[string]metric),
	}
	var (
		e      *env
		err    error
		want   []*stats.Rates
		trials []float64 // set-up durations at nominal machine speed
		raw    []float64 // and as measured
	)
	n := setupTrials
	if traced {
		n = 1 // the traced run spends its time on the ledger; setup_s is not its metric
	}
	for i := 0; i < n; i++ {
		var prev []*target
		if e != nil {
			prev = e.targets
			if err := e.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		t0 := time.Now()
		e, err = setUp(w, opt.seed, opt.smoke, opt.outDir)
		if err != nil {
			return nil, nil, nil, err
		}
		// A reference that moves between set-ups cannot judge anything.
		for j, t := range prev {
			if r := stats.Compare(t.ref, e.targets[j].ref); r.FP+r.FN > 0 || t.events != e.targets[j].events {
				_ = e.close()
				return nil, nil, nil, fmt.Errorf("%s/%s: reference profile differs between set-ups (%d+%d keys, %d vs %d events)",
					w.name, t.name, r.FP, r.FN, t.events, e.targets[j].events)
			}
		}
		want = pinnedRates(w, opt, e.targets)
		rep.count(e.repeat(nil, want)) // warm-up: verified, not timed
		d := time.Since(t0).Seconds()
		raw = append(raw, d)
		trials = append(trials, d/machineSpeed(append(e.yards, e.yardstick())...))
	}
	if !traced {
		rep.Metrics["setup_s"] = medianOf(trials, "s").measured(raw)
	}
	for i, t := range e.targets {
		ps := programStamp{Name: t.name, Scale: t.scale, Events: t.events, Addresses: t.addresses, Slots: t.slots}
		if r := want[i]; r != nil { // nil only if the warm-up profile failed
			ps.Deps, ps.RefDeps, ps.FP, ps.FN = r.Measured, r.Truth, r.FP, r.FN
		}
		rep.Programs = append(rep.Programs, ps)
	}
	if err := checkPins(w, opt, e.targets); err != nil {
		rep.Failed++
		rep.Failures = append(rep.Failures, err.Error())
	}
	return rep, e, want, nil
}

// measure is the end-to-end run: set-up, then fixed-work repetitions for
// opt.seconds (at least minReps), each timing metric the median over them.
// Tracing is off.
func measure(w workload, opt options) (rep *report, err error) {
	rep, e, want, err := newReport(w, opt, false)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()

	// Give the reference computations' heap back before the first profile,
	// so no repetition's resident set starts from set-up's.
	debug.FreeOSMemory()
	if !resetPeakRSS() {
		rep.Notes = append(rep.Notes, "VmHWM reset refused: peak_rss_mb is the whole process's peak, set-up included")
	}
	var rate, cpu, rawRate, rawCPU, acct, rss []float64
	var last repetition
	deadline := time.Now().Add(time.Duration(opt.seconds * float64(time.Second)))
	for len(rate) < minReps || time.Now().Before(deadline) {
		r := e.repeat(nil, want)
		rep.count(r)
		if len(r.fails) > 0 {
			if rep.Failed > minReps {
				break // a broken tree fails every repetition; no need to spend the whole budget
			}
			continue
		}
		// Memory is per profile — what a user running one program sees —
		// averaged over the repetition's programs.
		perProfile := float64(len(r.profiles)) * (1 << 20)
		mb := float64(r.accounted) / perProfile
		if w.via != viaParallel && len(acct) > 0 && mb != acct[0] {
			// The chunk pool makes the accounting follow the schedule in the
			// parallel pipeline; everywhere else it must repeat exactly.
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("%s: accounted %.6f MB per profile, first repetition had %.6f", w.name, mb, acct[0]))
		}
		rate = append(rate, float64(r.events)/r.wallRef)
		cpu = append(cpu, 1e9*r.cpuRef/float64(r.events))
		rawRate = append(rawRate, float64(r.events)/r.wall.Seconds())
		rawCPU = append(rawCPU, float64(r.cpu.Nanoseconds())/float64(r.events))
		acct = append(acct, mb)
		rss = append(rss, float64(r.peakRSS)/perProfile)
		last = r
	}
	if len(rate) == 0 {
		return rep, nil
	}
	rep.Metrics["events_per_s"] = medianOf(rate, "1/s").measured(rawRate)
	rep.Metrics["cpu_ns_per_event"] = medianOf(cpu, "ns").measured(rawCPU)
	rep.Metrics["peak_rss_mb"] = medianOf(rss, "MB")
	rep.Metrics["profiler_mb"] = meanOf(acct, "MB")
	rep.Metrics["dep_precision_pct"] = metric{Value: precision(last.rates), Unit: "%"}
	rep.Metrics["dep_recall_pct"] = metric{Value: recall(last.rates), Unit: "%"}
	return rep, nil
}

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the report for people — every metric by name with its unit,
// the stamp, the pinned programs, any failure — then the full report as one
// JSON line for tools (calibrate, all), then the driver's result line.
func (rep *report) print(w io.Writer, names []string) error {
	s := rep.Stamp
	fmt.Fprintf(w, "# ddbench %s (%s) seed %d traced=%v\n", rep.Workload, rep.Pipeline, rep.Seed, rep.Traced)
	fmt.Fprintf(w, "# host %s nproc %d GOMAXPROCS %d %s commit %s %s\n", s.Host, s.NProc, s.GOMAXPROCS, s.Go, s.Commit, s.Date)
	for _, p := range rep.Programs {
		fmt.Fprintf(w, "# program %-10s scale %.4f events %d slots %d", p.Name, p.Scale, p.Events, p.Slots)
		if p.Addresses > 0 {
			fmt.Fprintf(w, " addresses %d", p.Addresses)
		}
		fmt.Fprintf(w, " deps %d (reference %d, false %d, missed %d)\n", p.Deps, p.RefDeps, p.FP, p.FN)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "# note: %s\n", n)
	}
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: make(map[string]resultValue)}
	for _, name := range names {
		m, ok := rep.Metrics[name]
		if !ok {
			// A run that failed before measuring has nothing to report.
			res.Correct = false
			continue
		}
		res.Metrics[name] = resultValue{m.Value, m.Unit}
		line := fmt.Sprintf("%-36s %16.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			line += fmt.Sprintf(" n=%d [%.6g .. %.6g]", m.N, m.Min, m.Max)
		}
		if m.Raw != 0 {
			line += fmt.Sprintf(" as measured %.6g", m.Raw)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "report: %s\n", full)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// tracePath names the Chrome trace a traced run leaves behind.
func tracePath(opt options, w workload) string {
	return filepath.Join(opt.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, opt.seed))
}
