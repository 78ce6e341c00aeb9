package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"ddprof"
	"ddprof/internal/workloads"
)

func TestBuildTargetQuick(t *testing.T) {
	p, err := buildTarget("quick", 1, 4, "serial")
	if err != nil {
		t.Fatalf("quick: %v", err)
	}
	if _, err := ddprof.Run(p); err != nil {
		t.Fatalf("quick does not run: %v", err)
	}
}

func TestBuildTargetAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := buildTarget(w.Name, 0.5, 4, "serial")
		if err != nil || p == nil || p.Name != w.Name {
			t.Errorf("%s: %v, built %v", w.Name, err, p)
		}
	}
}

// TestBuildTargetMT: -mode mt builds the pthread variant, and so does any
// mode for the one workload that has no sequential build.
func TestBuildTargetMT(t *testing.T) {
	p, err := buildTarget("kmeans", 0.5, 4, "mt")
	if err != nil || p.Name != "kmeans-pthread" {
		t.Fatalf("kmeans mt: %v, built %v", err, p)
	}
	for _, mode := range []string{"serial", "mt"} {
		if p, err := buildTarget("water-spatial", 0.5, 4, mode); err != nil || p.Name != "water-spatial" {
			t.Fatalf("water-spatial -mode %s: %v, built %v", mode, err, p)
		}
	}
}

// TestCheckFlags: bad -mode and -format values are refused up front.
func TestCheckFlags(t *testing.T) {
	if m, err := checkFlags("mt", "binary", "", 0, 0); err != nil || m != ddprof.ModeMT {
		t.Errorf("mt/binary: mode %v, %v", m, err)
	}
	for _, bad := range [][2]string{{"serial", "json"}, {"turbo", "text"}, {"lockbased", "text"}, {"", "text"}, {"mt", ""}} {
		if _, err := checkFlags(bad[0], bad[1], "", 0, 0); err == nil {
			t.Errorf("-mode %q -format %q accepted", bad[0], bad[1])
		}
	}
}

func TestBuildTargetErrors(t *testing.T) {
	if _, err := buildTarget("no-such-workload", 1, 4, "serial"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := buildTarget("CG", 1, 4, "mt"); err == nil || !strings.Contains(err.Error(), "no multi-threaded variant") {
		t.Errorf("CG -mode mt: %v", err)
	}
}

// TestRun drives the command line end to end: every report name, the default
// dump, and the arguments that must be refused before any work is done.
func TestRun(t *testing.T) {
	cg := []string{"-workload", "CG", "-scale", "0.2"}
	for _, tc := range []struct {
		args   []string
		code   int
		stdout []string // substrings of stdout
		stderr string   // substring of stderr
	}{
		{args: cg, stdout: []string{"BGN loop", "{RAW", "# CG: ", "# parallelizable loops: [cg.init_aval"}},
		{args: append([]string{"-summary"}, cg...), stdout: []string{"\n# CG: "}},
		{args: append([]string{"parallelism"}, cg...), stdout: []string{"Loop parallelism in CG", "cg.rho0", "parallelizable with reduction", "note: 9 of 16 OMP-annotated loops"}},
		{args: append([]string{"hot-deps"}, cg...), stdout: []string{"RAW 1:37 <- 1:37 |k| x"}},
		{args: append([]string{"communication"}, cg...), stdout: []string{"(4 target threads)", "(producer)", "cross-thread RAW volume: 0 instances", "potential data races: 0"}},
		{args: append([]string{"races"}, cg...), stdout: []string{"0 dependences flagged as potential races"}},
		{args: append([]string{"callgraph"}, cg...), stdout: []string{"main ", "max call depth: 1"}},
		{args: append([]string{"sections"}, cg...), stdout: []string{"cg.init_aval         -> cg.spmv.k"}},
		{args: append([]string{"all"}, cg...), stdout: []string{"analysis of CG (", "== parallelism ==", "== hot-deps ==",
			"== communication ==", "== races ==", "== callgraph ==", "== sections =="}},
		{args: []string{"-list"}, stdout: []string{"CG ", "kmeans         starbench (has pthread variant)", "water-spatial  splash (pthread only)"}},
		// A spawning target named under the default -mode serial.
		{args: []string{"races", "-workload", "water-spatial", "-scale", "0.2"}, stdout: []string{"0 dependences flagged"}, stderr: "forcing -mode mt"},

		{args: append(cg, "parallelism"), code: 2, stderr: "the report name comes first"},
		{args: append([]string{"parfind"}, cg...), code: 2, stderr: "parallelism | hot-deps | communication | races | callgraph | sections | all"},
		{args: []string{"parallelism", "-remote", "unix:/nonexistent.sock"}, code: 2, stderr: "needs a local run"},
		{args: []string{"all", "-remote", "unix:/nonexistent.sock", "-watch"}, code: 2, stderr: "needs a local run"},
		{args: []string{"-mode", "lockbased"}, code: 2, stderr: `unknown mode "lockbased"`},
		{args: []string{"-interp"}, code: 2, stderr: "not defined: -interp"},
		{args: []string{"-backend", "nosuch"}, code: 2, stderr: `ddprof: -backend: sig: unknown store backend "nosuch"`},
		{args: []string{"-backend", "hybrid:exact=4096"}, code: 2, stderr: `unknown store backend "hybrid" (registered: hashtab, perfect, shadow, signature)`},
		{args: []string{"-backend", "signature:bogus=1"}, code: 2, stderr: `does not take parameter "bogus"`},
		{args: []string{"-backend", "signature:slots=0"}, code: 2, stderr: "slots = 0; want >= 1"},
		{args: []string{"-backend", "nosuch", "-remote", "unix:/nonexistent.sock"}, code: 2, stderr: `unknown store backend "nosuch"`},
		{args: []string{"-slots", "-5"}, code: 2, stderr: "-slots -5"},
		{args: []string{"-workers", "-2"}, code: 2, stderr: "-workers -2"},
		{args: []string{"-watch"}, code: 2, stderr: "-watch needs -remote"},
		{args: []string{"-workload", "CG", "-mode", "mt"}, code: 1, stderr: `workload "CG" has no multi-threaded variant`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("ddprof %v: exit %d, want %d\nstderr: %s", tc.args, code, tc.code, &stderr)
			continue
		}
		for _, want := range tc.stdout {
			if !strings.Contains(stdout.String(), want) {
				t.Errorf("ddprof %v: stdout lacks %q:\n%s", tc.args, want, &stdout)
			}
		}
		if !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("ddprof %v: stderr lacks %q:\n%s", tc.args, tc.stderr, &stderr)
		}
		if tc.code != 0 && stdout.Len() != 0 {
			t.Errorf("ddprof %v: refused, yet wrote to stdout:\n%s", tc.args, &stdout)
		}
	}
}

// TestRunParfindGolden: the parallelism report is the retired parfind
// binary's table, byte for byte (captured from `parfind -workload CG -backend
// perfect`, which profiled in parallel mode).
func TestRunParfindGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/parfind_CG.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"parallelism", "-workload", "CG", "-mode", "parallel", "-backend", "perfect"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("parallelism report differs from testdata/parfind_CG.txt:\n%s", &stdout)
	}
}

// TestRunCommunicationBanded: water-spatial's heatmap (Figure 9) is banded —
// every visible off-diagonal cell joins ring neighbours, and every thread
// talks to both of its own.
func TestRunCommunicationBanded(t *testing.T) {
	const T = 8
	var stdout, stderr bytes.Buffer
	if code := run([]string{"communication", "-workload", "water-spatial", "-threads", "8"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "communication pattern of water-spatial (8 target threads)") ||
		!strings.Contains(out, "potential data races: 0") {
		t.Fatalf("unexpected report:\n%s", out)
	}
	_, grid, ok := strings.Cut(out, "(consumer)\n")
	if !ok {
		t.Fatalf("no heatmap:\n%s", out)
	}
	rows := strings.Split(grid, "\n")[:T]
	neighbours := 0
	for p, row := range rows {
		// "%4d " then one "  X" cell per consumer.
		if len(row) != 5+3*T {
			t.Fatalf("row %d malformed: %q", p, row)
		}
		for c := 0; c < T; c++ {
			if row[5+3*c+2] == ' ' || p == c {
				continue
			}
			if c != (p+1)%T && c != (p+T-1)%T {
				t.Errorf("thread %d -> %d communicate, not ring neighbours:\n%s", p, c, out)
			}
			neighbours++
		}
	}
	if neighbours != 2*T {
		t.Errorf("%d neighbour cells visible, want %d:\n%s", neighbours, 2*T, out)
	}
}
