// Trace record/replay: execute the target once while recording its memory
// access stream (a DDT2 trace), then profile it offline at several signature sizes
// — the run-once/analyze-often workflow behind the paper's Table I
// methodology, without re-running the target.
package main

import (
	"bytes"
	"fmt"
	"log"

	"ddprof"
	"ddprof/internal/workloads"
)

func main() {
	prog := workloads.StreamCluster(workloads.Config{Scale: 0.5})

	var buf bytes.Buffer
	n, err := ddprof.RecordTrace(prog, &buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d accesses of %s into a %d-byte trace (%.1f bytes/event)\n\n",
		n, prog.Name, buf.Len(), float64(buf.Len())/float64(n))

	// Ground truth from an exact store.
	truth, err := ddprof.ProfileTrace(bytes.NewReader(buf.Bytes()), ddprof.Config{Backend: "perfect"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact store:        %d dependences\n", truth.Unique())

	// The same trace at shrinking signature sizes: watch accuracy erode
	// only once the signature drops below the address footprint.
	for _, slots := range []int{1 << 20, 1 << 12, 1 << 7} {
		set, err := ddprof.ProfileTrace(bytes.NewReader(buf.Bytes()), ddprof.Config{Slots: slots})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d-slot signature: %d dependences\n", slots, set.Unique())
	}
	fmt.Println("\none execution, many profiles — the trace replaces re-running the target.")
}
