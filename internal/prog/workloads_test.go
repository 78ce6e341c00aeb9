package prog_test

import (
	"testing"

	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/workloads"
)

// TestCommonDepthWorkloads holds CommonDepth to a naive prefix compare of
// the two loop stacks over every pair of contexts, two unknown IDs
// included, of every bundled workload's Meta, sequential and pthread-style.
func TestCommonDepthWorkloads(t *testing.T) {
	naive := func(m *prog.Meta, a, b uint32) int {
		if a == b {
			return prog.SameCtx
		}
		sa, sb := m.Stack(a), m.Stack(b)
		n := 0
		for n < len(sa) && n < len(sb) && sa[n] == sb[n] {
			n++
		}
		return n
	}
	cfg := workloads.Config{Scale: 0.1, Threads: 2}
	nested := 0 // pairs of distinct contexts sharing a loop
	for _, w := range workloads.Catalog() {
		for _, build := range []func(workloads.Config) *minilang.Program{w.Build, w.BuildParallel} {
			if build == nil {
				continue
			}
			m := build(cfg).Meta
			n := uint32(m.NumCtxs())
			ids := []uint32{n, 1 << 16}
			for id := uint32(0); id < n; id++ {
				ids = append(ids, id)
			}
			for _, a := range ids {
				for _, b := range ids {
					got, want := m.CommonDepth(a, b), naive(m, a, b)
					if got != want {
						t.Errorf("%s: CommonDepth(%d, %d) = %d, want %d (stacks %v, %v)", w.Name, a, b, got, want, m.Stack(a), m.Stack(b))
					}
					if got > 0 {
						nested++
					}
				}
			}
		}
	}
	if nested == 0 {
		t.Error("no two distinct contexts share a loop: the workloads' Metas are not being read")
	}
	t.Logf("%d pairs of distinct contexts share a loop", nested)
}
