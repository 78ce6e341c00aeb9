package exp

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// BenchEntry is one parsed `go test -bench` result line that reported a
// custom events/s metric (BenchmarkHotPath does via b.ReportMetric).
// Workload/Pattern are attached from the sub-benchmark's recorded metadata
// (benchMeta). CompRatio is no longer reported; the field keeps the rows of
// runs recorded while the producer compressed strides readable.
type BenchEntry struct {
	Name         string  `json:"name"` // sub-benchmark name, e.g. "serial"
	NsPerOp      float64 `json:"ns_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
	Workload     string  `json:"workload,omitempty"`
	Pattern      string  `json:"pattern,omitempty"`
	CompRatio    float64 `json:"comp_ratio,omitempty"`
}

// benchMeta maps BenchmarkHotPath sub-benchmark names to the workload they
// replay and its access pattern, so BENCH_pipeline.json rows carry enough
// context to read without the benchmark source at hand.
var benchMeta = map[string]struct{ Workload, Pattern string }{
	"serial":    {"hotpath", "dependence-dense"},
	"parallel4": {"hotpath", "dependence-dense"},
	"mt4":       {"hotpath", "dependence-dense"},
	"strided4":  {"strided-sweep", "strided"},
	"mixed4":    {"mixed-sweep", "strided+random"},
	"ptrchase4": {"pointer-chase", "random"},

	// BenchmarkHotPath's producer pair and BenchmarkProducer's family ×
	// executor matrix ("scalar/vm" is raw production, "scalar-sink/vm" adds
	// delivery into a no-op hook; see bench_test.go).
	"producer-interp":      {"producer-scalar", "scalar-reduction"},
	"producer-vm":          {"producer-scalar", "scalar-reduction"},
	"scalar/interp":        {"producer-scalar", "scalar-reduction"},
	"scalar/vm":            {"producer-scalar", "scalar-reduction"},
	"scalar-sink/interp":   {"producer-scalar", "scalar-reduction"},
	"scalar-sink/vm":       {"producer-scalar", "scalar-reduction"},
	"strided/interp":       {"producer-strided", "strided"},
	"strided/vm":           {"producer-strided", "strided"},
	"strided-sink/interp":  {"producer-strided", "strided"},
	"strided-sink/vm":      {"producer-strided", "strided"},
	"threaded/interp":      {"producer-threaded", "threaded+locks"},
	"threaded/vm":          {"producer-threaded", "threaded+locks"},
	"threaded-sink/interp": {"producer-threaded", "threaded+locks"},
	"threaded-sink/vm":     {"producer-threaded", "threaded+locks"},

	// BenchmarkMerge's workers × distinct-deps × overlap matrix: "serial" is
	// the old one-worker-at-a-time fold, "tree" the parallel tree reduction
	// on the merge stage now; events/s counts merged source entries (see
	// bench_test.go).
	"w4-d64k-ov50/serial":  {"merge-stage", "4-shard fold, 50% overlap"},
	"w4-d64k-ov50/tree":    {"merge-stage", "4-shard fold, 50% overlap"},
	"w8-d64k-ov50/serial":  {"merge-stage", "8-shard fold, 50% overlap"},
	"w8-d64k-ov50/tree":    {"merge-stage", "8-shard fold, 50% overlap"},
	"w16-d64k-ov50/serial": {"merge-stage", "16-shard fold, 50% overlap"},
	"w16-d64k-ov50/tree":   {"merge-stage", "16-shard fold, 50% overlap"},
	"w8-d16k-ov50/serial":  {"merge-stage", "small profile, 50% overlap"},
	"w8-d16k-ov50/tree":    {"merge-stage", "small profile, 50% overlap"},
	"w8-d256k-ov50/serial": {"merge-stage", "large profile, 50% overlap"},
	"w8-d256k-ov50/tree":   {"merge-stage", "large profile, 50% overlap"},
	"w8-d64k-ov0/serial":   {"merge-stage", "disjoint shards"},
	"w8-d64k-ov0/tree":     {"merge-stage", "disjoint shards"},
	"w8-d64k-ov90/serial":  {"merge-stage", "near-duplicate shards"},
	"w8-d64k-ov90/tree":    {"merge-stage", "near-duplicate shards"},

	// BenchmarkRemoteIngest: the same dependence-dense stream through a full
	// daemon session over a loopback socket (framed DDT1 → batched decode →
	// bulk ingest) and through an in-process profiler of the same
	// configuration — the gap between the pairs is the wire + ingest cost
	// (see internal/server/bench_remote_test.go).
	"remote-serial":    {"remote-ingest", "dependence-dense, framed DDT1"},
	"inproc-serial":    {"remote-ingest", "dependence-dense, in-process"},
	"remote-parallel4": {"remote-ingest", "dependence-dense, framed DDT1"},
	"inproc-parallel4": {"remote-ingest", "dependence-dense, in-process"},
}

// BenchRun is one labelled benchmark invocation (e.g. "baseline" before a
// change, "hotpath" after). Stamp is absent on runs recorded before it
// existed.
type BenchRun struct {
	Label   string       `json:"label"`
	Stamp   *BenchStamp  `json:"stamp,omitempty"`
	Entries []BenchEntry `json:"entries"`
}

// BenchStamp says where a run's numbers come from: events/s floors are
// machine-relative, so a baseline is only comparable on the host, core count
// and toolchain that recorded it.
type BenchStamp struct {
	Host   string `json:"host"`
	Cores  int    `json:"cores"`
	Go     string `json:"go"`
	Commit string `json:"commit"`
}

// BenchFile is the BENCH_pipeline.json schema: an append-only log of
// benchmark runs, so regressions are visible against every recorded
// predecessor rather than only the last one.
type BenchFile struct {
	Benchmark string     `json:"benchmark"`
	Runs      []BenchRun `json:"runs"`
}

// ParseBench extracts the entries of `go test -bench` output. Only lines
// carrying an events/s metric are kept; everything else (goos/pkg banners,
// PASS, ok) is ignored. The sub-benchmark name is the path segment after the
// first '/' with the -cpu suffix stripped: "BenchmarkHotPath/serial-4" →
// "serial".
func ParseBench(r io.Reader) ([]BenchEntry, error) {
	var out []BenchEntry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		e := BenchEntry{Name: benchName(f[0])}
		found := false
		for i := 1; i < len(f); i++ {
			v, err := strconv.ParseFloat(f[i-1], 64)
			if err != nil {
				continue
			}
			switch f[i] {
			case "ns/op":
				e.NsPerOp = v
			case "events/s":
				e.EventsPerSec = v
				found = true
			}
		}
		if found {
			if md, ok := benchMeta[e.Name]; ok {
				e.Workload, e.Pattern = md.Workload, md.Pattern
			}
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, errors.New("no benchmark lines with an events/s metric found")
	}
	return out, nil
}

func benchName(full string) string {
	name := full
	if i := strings.IndexByte(full, '/'); i >= 0 {
		name = full[i+1:]
	}
	// Strip the GOMAXPROCS suffix go test appends ("serial-4" → "serial").
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	return name
}

// BenchDelta is one sub-benchmark's throughput change against a recorded
// baseline run.
type BenchDelta struct {
	Name      string
	Base, Now float64 // events/s
	Ratio     float64 // Now / Base
	Regressed bool
}

// CompareBench checks fresh benchmark entries against the run labelled
// baseLabel in the log at path. A sub-benchmark regresses when its events/s
// falls more than tolerance (a fraction, e.g. 0.10 for 10%) below the
// recorded value. When the fresh output repeats a sub-benchmark (go test
// -count > 1) the best repeat is compared: the gate guards the pipeline's
// attainable throughput, and the first iteration of a process is routinely
// depressed by warm-up and frequency scaling. Sub-benchmarks present on only
// one side are skipped: the gate guards throughput, not coverage. The error
// reports only I/O and schema problems — regression is the callers' decision
// to make from the deltas.
func CompareBench(path, baseLabel string, entries []BenchEntry, tolerance float64) ([]BenchDelta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var base *BenchRun
	for i := range bf.Runs {
		if bf.Runs[i].Label == baseLabel {
			base = &bf.Runs[i]
			break
		}
	}
	if base == nil {
		return nil, fmt.Errorf("%s: no run labelled %q", path, baseLabel)
	}
	// Both sides collapse repeats to the best observed events/s.
	baseline := make(map[string]float64, len(base.Entries))
	for _, e := range base.Entries {
		if e.EventsPerSec > baseline[e.Name] {
			baseline[e.Name] = e.EventsPerSec
		}
	}
	best := make(map[string]float64, len(entries))
	var order []string
	for _, e := range entries {
		if _, seen := best[e.Name]; !seen {
			order = append(order, e.Name)
		}
		if e.EventsPerSec > best[e.Name] {
			best[e.Name] = e.EventsPerSec
		}
	}
	var out []BenchDelta
	for _, name := range order {
		b, ok := baseline[name]
		if !ok || b <= 0 {
			continue
		}
		d := BenchDelta{Name: name, Base: b, Now: best[name], Ratio: best[name] / b}
		d.Regressed = d.Ratio < 1-tolerance
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: run %q shares no sub-benchmarks with the fresh output", path, baseLabel)
	}
	return out, nil
}

// AppendBenchRun loads path (if it exists), appends a labelled run and writes
// the file back. A run with the same label is replaced in place, so re-runs
// update their row instead of growing the log.
func AppendBenchRun(path, label string, stamp *BenchStamp, entries []BenchEntry) (*BenchFile, error) {
	bf := &BenchFile{Benchmark: "BenchmarkHotPath"}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, bf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	run := BenchRun{Label: label, Stamp: stamp, Entries: entries}
	replaced := false
	for i := range bf.Runs {
		if bf.Runs[i].Label == label {
			bf.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		bf.Runs = append(bf.Runs, run)
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	return bf, nil
}
