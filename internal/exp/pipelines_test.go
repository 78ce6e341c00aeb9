package exp

import (
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/workloads"
)

// TestHotPathByteIdenticalOnSuite holds the pipelines' shortcuts to the
// profiler without them on every workload in the suite: the parallel pipeline
// (routing, per-worker engines, merge) and the MT pipeline must produce
// dependence sets and LoopDeps byte-identical to the serial profiler's, which
// has no producer and one engine.
func TestHotPathByteIdenticalOnSuite(t *testing.T) {
	opt := small().norm()
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(opt.wcfg())
			cap, _, err := captureRun(p)
			if err != nil {
				t.Fatal(err)
			}
			run := func(mode core.Mode, workers int) *core.Result {
				res, err := replay(cap, core.Config{Mode: mode, Workers: workers, Backend: "perfect", Meta: p.Meta})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(core.ModeSerial, 0)
			// The capture carries no timestamps, so MT's race rule flags nothing
			// and its profile is the serial one.
			for name, fast := range map[string]*core.Result{
				"parallel": run(core.ModeParallel, 4),
				"mt":       run(core.ModeMT, 4),
			} {
				if fast.Deps.Unique() != serial.Deps.Unique() {
					t.Fatalf("%s: unique deps %d, serial %d", name, fast.Deps.Unique(), serial.Deps.Unique())
				}
				serial.Deps.Range(func(k dep.Key, st dep.Stats) bool {
					fst, ok := fast.Deps.Lookup(k)
					if !ok || fst != st {
						t.Fatalf("%s: dep %+v diverges: serial %+v, %s %+v (found %v)", name, k, st, name, fst, ok)
					}
					return true
				})
				if len(fast.Loops) != len(serial.Loops) {
					t.Fatalf("%s: LoopDeps size %d, serial %d", name, len(fast.Loops), len(serial.Loops))
				}
				for id, sld := range serial.Loops {
					fld := fast.Loops[id]
					if fld == nil || *fld != *sld {
						t.Fatalf("%s: LoopDeps for loop %d diverge: serial %+v, %s %v", name, id, *sld, name, fld)
					}
				}
			}
		})
	}
}
