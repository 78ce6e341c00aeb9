package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestLinkedPackages pins the internal packages ddprof and ddprofd link to
// testdata/linked.txt, so production code cannot pick up an experiment or an
// oracle unnoticed. A change that moves code in or out of a binary updates
// the list.
func TestLinkedPackages(t *testing.T) {
	raw, err := os.ReadFile("testdata/linked.txt")
	if err != nil {
		t.Fatal(err)
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	bins := 0
	for _, line := range strings.Split(string(raw), "\n") {
		bin, pinned, ok := strings.Cut(line, ": ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		bins++
		want := strings.Fields(pinned)
		if slices.Contains(want, "exp") {
			t.Errorf("%s: the pinned list links internal/exp", bin)
		}
		out, err := exec.Command(goTool, "list", "-deps", bin).Output()
		if err != nil {
			t.Fatalf("go list -deps %s: %v", bin, err)
		}
		var got []string
		for _, p := range strings.Fields(string(out)) {
			if name, ok := strings.CutPrefix(p, "ddprof/internal/"); ok {
				got = append(got, name)
			}
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s links ddprof/internal/{%s}, testdata/linked.txt pins {%s}",
				bin, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	if bins != 2 {
		t.Errorf("testdata/linked.txt pins %d binaries, want ddprof and ddprofd", bins)
	}
}
