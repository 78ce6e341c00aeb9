package main

import (
	"testing"

	"ddprof"
	"ddprof/internal/workloads"
)

func TestBuildTargetQuick(t *testing.T) {
	p, mt, err := buildTarget("quick", 1, 4, "serial")
	if err != nil || mt {
		t.Fatalf("quick: %v mt=%v", err, mt)
	}
	if _, err := ddprof.Run(p); err != nil {
		t.Fatalf("quick does not run: %v", err)
	}
}

func TestBuildTargetAllWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p, mt, err := buildTarget(w.Name, 0.5, 4, "serial")
		if err != nil || mt || p == nil {
			t.Errorf("%s: %v mt=%v", w.Name, err, mt)
		}
	}
}

func TestBuildTargetMT(t *testing.T) {
	p, mt, err := buildTarget("kmeans", 0.5, 4, "mt")
	if err != nil || !mt || p == nil {
		t.Fatalf("kmeans mt: %v mt=%v", err, mt)
	}
	if _, mt, err := buildTarget("water-spatial", 0.5, 4, "mt"); err != nil || !mt {
		t.Fatalf("water-spatial: %v mt=%v", err, mt)
	}
}

// TestCheckFlags: bad -mode and -format values are refused up front.
func TestCheckFlags(t *testing.T) {
	if m, err := checkFlags("lockbased", "binary"); err != nil || m != ddprof.ModeParallelLockBased {
		t.Errorf("lockbased/binary: mode %v, %v", m, err)
	}
	for _, bad := range [][2]string{{"serial", "json"}, {"turbo", "text"}, {"", "text"}, {"mt", ""}} {
		if _, err := checkFlags(bad[0], bad[1]); err == nil {
			t.Errorf("-mode %q -format %q accepted", bad[0], bad[1])
		}
	}
}

func TestBuildTargetErrors(t *testing.T) {
	if _, _, err := buildTarget("no-such-workload", 1, 4, "serial"); err == nil {
		t.Error("unknown workload accepted")
	}
}
