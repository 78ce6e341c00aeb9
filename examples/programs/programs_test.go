// Package programs_test parses and profiles every sample program, keeping
// the shipped .ml files in sync with the front-end.
package programs_test

import (
	"os"
	"path/filepath"
	"testing"

	"ddprof"
)

func TestSamplesParseAndProfile(t *testing.T) {
	files, err := filepath.Glob("*.ml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sample programs found: %v", err)
	}
	wantParallel := map[string][]string{
		"matmul.ml":    {"init_A", "init_B", "rows", "cols"},
		"histogram.ml": {"gen", "clear", "rescale"},
		"stencil.ml":   {"init", "jacobi"},
	}
	for _, f := range files {
		t.Run(f, func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			p, err := ddprof.ParseTarget(f, string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res, err := ddprof.Profile(p, ddprof.Config{Mode: ddprof.ModeParallel, Workers: 4, Backend: "perfect"})
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			if res.Accesses == 0 || res.Deps.Unique() == 0 {
				t.Fatal("empty profile")
			}
			if want, ok := wantParallel[f]; ok {
				got := map[string]bool{}
				for _, name := range res.ParallelizableLoops() {
					got[name] = true
				}
				for _, name := range want {
					if !got[name] {
						t.Errorf("loop %s not identified; got %v", name, res.ParallelizableLoops())
					}
				}
				if len(got) != len(want) {
					t.Errorf("parallelizable = %v, want exactly %v", res.ParallelizableLoops(), want)
				}
			}
		})
	}
}

func TestStencilDoacross(t *testing.T) {
	src, err := os.ReadFile("stencil.ml")
	if err != nil {
		t.Fatal(err)
	}
	p, err := ddprof.ParseTarget("stencil.ml", string(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := ddprof.Profile(p, ddprof.Config{Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Loops {
		switch l.Loop.Name {
		case "gauss_seidel":
			if l.Parallelizable || l.DoacrossDistance != 1 {
				t.Errorf("gauss_seidel = %+v, want sequential distance 1", l)
			}
		case "lag3":
			if l.DoacrossDistance != 3 {
				t.Errorf("lag3 distance = %d, want 3", l.DoacrossDistance)
			}
		}
	}
}
