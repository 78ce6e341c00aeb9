package main

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside the contract's charset", name)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is outside the contract's charset", name, unit)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range allWorkloads {
		check(w.name, "")
	}
	for _, m := range endToEnd {
		check(m.name, m.unit)
	}
	for _, m := range perLayer {
		check(m.name, m.unit)
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got, want := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}), 5.5/5.5; got != want {
		t.Errorf("spread(1..10) = %v, want %v", got, want)
	}
	if got := spread([]float64{7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v, want 0", got)
	}
}

func TestMachineSpeed(t *testing.T) {
	if got := machineSpeed(yardNominal, yardNominal); got != 1 {
		t.Errorf("machineSpeed at nominal = %v, want 1", got)
	}
	if got := machineSpeed(yardNominal, 2*yardNominal, 3*yardNominal); got != 2 {
		t.Errorf("machineSpeed at twice nominal on average = %v, want 2", got)
	}
	if d := yardstick(); d <= 0 {
		t.Errorf("yardstick took %v", d)
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "repetition", Parent: -1, Start: ms(0), End: ms(100)},
		{Name: "Profile", Parent: 0, Start: ms(5), End: ms(45)},
		{Name: "vm.Run", Parent: 1, Start: ms(10), End: ms(40)},
		{Name: "Profile", Parent: 0, Start: ms(50), End: ms(90)},
		{Name: "vm.Run", Parent: 3, Start: ms(60), End: ms(80)},
	}
	self := (&tracer{spans: spans}).selfTimes(0)
	for name, want := range map[string]time.Duration{"repetition": ms(20), "Profile": ms(30), "vm.Run": ms(50)} {
		if self[name] != want {
			t.Errorf("self time of %s = %v, want %v", name, self[name], want)
		}
	}
	// From the second Profile on: its parent lies before the mark and is ignored.
	if tail := (&tracer{spans: spans}).selfTimes(3); tail["Profile"] != ms(20) || tail["vm.Run"] != ms(20) || len(tail) != 2 {
		t.Errorf("self times since span 3 = %v", tail)
	}

	tr := newTracer()
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || len(tr.open) != 0 {
		t.Errorf("tracer nesting: %+v open %v", tr.spans, tr.open)
	}
	var off *tracer
	off.end(off.begin("ignored")) // a nil tracer records nothing and must not crash
}

func TestBenchmarkFileAgreesWithHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(allWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(allWorkloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != allWorkloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in harness", i, w.Name, allWorkloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxBound float64
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end %d: %s [%s] in BENCHMARK.json, %s [%s] in harness", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower is better")
			}
		}
	}
	if setupBound == 0 || setupBound != maxBound {
		t.Errorf("setup_s must be present with the largest bound; has %v, largest is %v", setupBound, maxBound)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer %d: %s [%s] in BENCHMARK.json, %s [%s] in harness", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestSeedBuildsTheSamePrograms(t *testing.T) {
	w := allWorkloads[0]
	a, err := w.targets(7, true)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := w.targets(7, true)
	c, _ := w.targets(8, true)
	same := true
	for i := range a {
		if a[i].name != b[i].name || a[i].scale != b[i].scale {
			t.Errorf("seed 7 twice: %s@%v then %s@%v", a[i].name, a[i].scale, b[i].name, b[i].scale)
		}
		if a[i].name != c[i].name || a[i].scale != c[i].scale {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 built identical inputs")
	}
	full, _ := w.targets(7, false)
	for _, tg := range full {
		for _, ps := range w.programs {
			if ps.name == tg.name && math.Abs(tg.scale/ps.scale-1) > scaleJitter+1e-4 {
				t.Errorf("%s: scale %v is more than %v from nominal %v", tg.name, tg.scale, scaleJitter, ps.scale)
			}
		}
	}
	if got := tightSlots(183147); got != 32768 {
		t.Errorf("tightSlots(183147) = %d, want 32768", got)
	}
}

// TestSmoke runs every workload end to end and traced at smoke scale, the
// unix-socket session included, and holds the output to BENCHMARK.json's
// names: every declared metric emitted, nothing undeclared.
func TestSmoke(t *testing.T) {
	for _, w := range allWorkloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			opt := options{seed: 3, seconds: 0, smoke: true, outDir: t.TempDir()}
			rep, err := measure(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, names(endToEnd))
			again, err := measure(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			// Same seed twice: the same programs, events and accuracy, and
			// off the parallel pipeline the same accounted memory.
			for i, p := range rep.Programs {
				if q := again.Programs[i]; p != q {
					t.Errorf("seed %d twice: program %+v then %+v", opt.seed, p, q)
				}
			}
			for _, name := range []string{"dep_precision_pct", "dep_recall_pct", "profiler_mb"} {
				if name == "profiler_mb" && w.via == viaParallel {
					continue
				}
				if a, b := rep.Metrics[name].Value, again.Metrics[name].Value; a != b {
					t.Errorf("seed %d twice: %s = %v then %v", opt.seed, name, a, b)
				}
			}
			if p := rep.Metrics["dep_precision_pct"].Value; (p < 100) != w.tight {
				t.Errorf("dep_precision_pct = %v on a workload with tight = %v", p, w.tight)
			}

			tr, err := traceRun(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, tr, names(perLayer))
			for name, m := range tr.Metrics {
				wire := strings.HasPrefix(name, "trace.") || strings.HasPrefix(name, "server.") || name == "core.batch_ns_per_event"
				if wire && (m.Value != 0) != (w.via == viaRemote) {
					t.Errorf("%s = %v on %s", name, m.Value, w.name)
				}
			}
			if fpr := tr.Metrics["dep_fpr_pct"].Value; (fpr > 0) != w.tight {
				t.Errorf("dep_fpr_pct = %v on a workload with tight = %v", fpr, w.tight)
			}
			if w.tight {
				if a, s := tr.Metrics["sig.addresses"].Value, tr.Metrics["sig.slots"].Value; a < tightDivisor*s {
					t.Errorf("sig.addresses %v is under %dx sig.slots %v", a, tightDivisor, s)
				}
			}
			if w.via == viaParallel && tr.Metrics["core.producer.comp_ratio"].Value < 1 {
				t.Errorf("core.producer.comp_ratio = %v", tr.Metrics["core.producer.comp_ratio"].Value)
			}
		})
	}
}

// checkReport holds a report to the list it must emit and to the driver's
// result-line contract.
func checkReport(t *testing.T, rep *report, want []string) {
	t.Helper()
	if rep.Failed != 0 || rep.Attempted == 0 {
		t.Fatalf("%d of %d operations failed: %v", rep.Failed, rep.Attempted, rep.Failures)
	}
	if len(rep.Metrics) != len(want) {
		t.Errorf("report has %d metrics, want %d", len(rep.Metrics), len(want))
	}
	var out bytes.Buffer
	if err := rep.print(&out, want); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a JSON object: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", res)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != rep.Attempted || r.Failed != 0 {
		t.Errorf("result line: %+v", r)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("result line has %d metrics, want %d", len(r.Metrics), len(want))
	}
	for _, name := range want {
		m, ok := r.Metrics[name]
		if !ok {
			t.Errorf("metric %s is declared but not emitted", name)
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", name, m.Value)
		}
	}
}
