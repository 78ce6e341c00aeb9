package exp

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: ddprof
BenchmarkHotPath/serial-4         	 1000000	       100.5 ns/op	   9941178 events/s
BenchmarkHotPath/parallel4-4      	  500000	       158.2 ns/op	   6320256 events/s
BenchmarkOther-4                  	  100000	      1000.0 ns/op
PASS
ok  	ddprof	12.3s
`
	entries, err := ParseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2 (lines without events/s are skipped)", len(entries))
	}
	if entries[0].Name != "serial" || entries[0].EventsPerSec != 9941178 || entries[0].NsPerOp != 100.5 {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[1].Name != "parallel4" {
		t.Fatalf("entry 1 name = %q, want parallel4 (cpu suffix stripped)", entries[1].Name)
	}
	if _, err := ParseBench(strings.NewReader("PASS\nok x 1s\n")); err == nil {
		t.Fatal("expected error for output without benchmark lines")
	}
}

func TestAppendBenchRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := AppendBenchRun(path, "baseline", nil, []BenchEntry{{Name: "serial", EventsPerSec: 1e6}}); err != nil {
		t.Fatal(err)
	}
	bf, err := AppendBenchRun(path, "after", nil, []BenchEntry{{Name: "serial", EventsPerSec: 2e6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 2 || bf.Runs[0].Label != "baseline" || bf.Runs[1].Label != "after" {
		t.Fatalf("runs = %+v", bf.Runs)
	}
	// Re-recording a label replaces the run, stamp included, instead of
	// appending.
	stamp := &BenchStamp{Host: "h", Cores: 2, Go: "go1.24.0", Commit: "abc"}
	bf, err = AppendBenchRun(path, "after", stamp, []BenchEntry{{Name: "serial", EventsPerSec: 3e6}})
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 2 || bf.Runs[1].Entries[0].EventsPerSec != 3e6 {
		t.Fatalf("after replace: %+v", bf.Runs)
	}
	if bf.Runs[0].Stamp != nil || bf.Runs[1].Stamp == nil || *bf.Runs[1].Stamp != *stamp {
		t.Fatalf("stamps: %+v, %+v", bf.Runs[0].Stamp, bf.Runs[1].Stamp)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}

func TestCompareBench(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if _, err := AppendBenchRun(path, "hotpath", nil, []BenchEntry{
		{Name: "serial", EventsPerSec: 1e6},
		{Name: "parallel4", EventsPerSec: 2e6},
		{Name: "mt4", EventsPerSec: 3e6},
	}); err != nil {
		t.Fatal(err)
	}

	fresh := []BenchEntry{
		{Name: "serial", EventsPerSec: 0.95e6},   // -5%: within tolerance
		{Name: "parallel4", EventsPerSec: 1.7e6}, // -15%: regressed
		{Name: "newbench", EventsPerSec: 1},      // no baseline: skipped
	}
	deltas, err := CompareBench(path, "hotpath", fresh, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("deltas = %+v, want 2 (unmatched names skipped)", deltas)
	}
	byName := map[string]BenchDelta{}
	for _, d := range deltas {
		byName[d.Name] = d
	}
	if d := byName["serial"]; d.Regressed {
		t.Errorf("serial at 95%% flagged as regressed: %+v", d)
	}
	if d := byName["parallel4"]; !d.Regressed {
		t.Errorf("parallel4 at 85%% not flagged: %+v", d)
	}

	// With -count > 1 the fresh output repeats names; the best repeat wins,
	// so a cold first iteration cannot fail the gate on its own.
	repeated := []BenchEntry{
		{Name: "serial", EventsPerSec: 0.6e6}, // cold first run
		{Name: "serial", EventsPerSec: 1.02e6},
		{Name: "serial", EventsPerSec: 0.98e6},
	}
	deltas, err = CompareBench(path, "hotpath", repeated, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || deltas[0].Now != 1.02e6 || deltas[0].Regressed {
		t.Errorf("repeated runs not collapsed to best: %+v", deltas)
	}

	if _, err := CompareBench(path, "no-such-run", fresh, 0.10); err == nil {
		t.Error("missing baseline label did not error")
	}
	if _, err := CompareBench(path, "hotpath", []BenchEntry{{Name: "zzz"}}, 0.10); err == nil {
		t.Error("disjoint sub-benchmark sets did not error")
	}
	if _, err := CompareBench(filepath.Join(t.TempDir(), "absent.json"), "hotpath", fresh, 0.10); err == nil {
		t.Error("missing file did not error")
	}
}
