package dep_test

import (
	"testing"

	"ddprof"
	"ddprof/internal/dep"
	"ddprof/internal/minilang"
	"ddprof/internal/workloads"
)

// TestWorkloadKeysHashApart: in the final dependence set of every bundled
// workload, sequential and pthread-style, no two keys share one 32-bit
// index hash, so no two of them probe one chain at any table size.
func TestWorkloadKeysHashApart(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every bundled workload")
	}
	cfg := workloads.Config{Scale: 0.2, Threads: 2}
	for _, w := range workloads.Catalog() {
		for _, build := range []func(workloads.Config) *minilang.Program{w.Build, w.BuildParallel} {
			if build == nil {
				continue
			}
			res, err := ddprof.Profile(build(cfg), ddprof.Config{Backend: "perfect"})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			seen := make(map[uint32]dep.Key)
			res.Deps.Range(func(k dep.Key, _ dep.Stats) bool {
				h := dep.HashKey(k)
				if prev, dup := seen[h]; dup {
					t.Errorf("%s (%v): %+v and %+v share hash %#x", w.Name, res.Mode, prev, k, h)
				}
				seen[h] = k
				return true
			})
		}
	}
}
