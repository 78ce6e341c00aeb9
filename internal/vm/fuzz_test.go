package vm_test

import (
	"math/rand"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/minilang"
	"ddprof/internal/testgen"
	"ddprof/internal/vm"
)

// checkSeed generates one random program from seed and requires the VM's
// event stream, run summary and error (if any) to match the tree-walking
// interpreter's byte for byte, with and without timestamping.
func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	p := testgen.Program(rand.New(rand.NewSource(seed)))
	expectSame(t, p, interp.Options{})
	expectSame(t, p, interp.Options{Timestamps: true})
}

// TestRandomProgramEquivalence is the deterministic slice of the fuzzer:
// a fixed band of seeds that always runs under plain `go test`.
func TestRandomProgramEquivalence(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < n; seed++ {
		checkSeed(t, seed)
	}
}

// FuzzVMEquivalence lets the fuzz engine explore the seed space:
//
//	go test ./internal/vm/ -fuzz FuzzVMEquivalence
//
// Any divergence between the two executors — stream contents, event order,
// run summary or error text — is a crash.
func FuzzVMEquivalence(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed)
	})
}

// BenchmarkProducer measures raw event production (null hook) of both
// executors over the same random program, reporting events/s. This is the
// per-package twin of the root package's BenchmarkProducer family.
func BenchmarkProducer(b *testing.B) {
	p := testgen.Program(rand.New(rand.NewSource(1)))
	for _, ex := range []struct {
		name string
		run  func(*minilang.Program, event.Hook, interp.Options) (*interp.RunInfo, error)
	}{{"interp", interp.Run}, {"vm", vm.Run}} {
		b.Run(ex.name, func(b *testing.B) {
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				info, err := ex.run(p, nil, interp.Options{})
				if err != nil {
					b.Fatal(err)
				}
				events += info.Accesses
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
