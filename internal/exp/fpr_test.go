package exp

// Eq. (2) on a real workload: the measured signature false-positive rate
// (write-slot occupancy, what pipeline_sig_occupancy_permille publishes) must
// track the paper's closed-form prediction Pfp = 1 - (1 - 1/m)^n on the
// rotate workload, with n its exact address count.

import (
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/sig"
	"ddprof/internal/stats"
	"ddprof/internal/workloads"
)

func TestRotateMeasuredFPRMatchesEq2(t *testing.T) {
	w, ok := workloads.ByName("rotate")
	if !ok {
		t.Fatal("rotate workload not registered")
	}
	opt := Defaults().norm()
	p := w.Build(opt.wcfg())
	cap, _, err := captureRun(p)
	if err != nil {
		t.Fatal(err)
	}

	// Size the signature at 4x the address footprint. Eq. (2) models uniform
	// hashing while the locality-preserving modulo hash keeps contiguous
	// addresses collision-free, so the two regimes only agree at low load
	// factors; 4x headroom keeps the write-set load under ~0.25 where the
	// divergence stays within a few points.
	n := cap.Addresses()
	slots := 4 * n
	g := sig.NewSignature(slots)
	e := core.NewEngine(g, p.Meta, false)
	for _, a := range cap.Events() {
		e.Process(a)
	}

	meas, pred := g.Occupancy(), stats.PredictedFP(float64(slots), float64(n))
	if meas == 0 || pred == 0 {
		t.Fatalf("degenerate rates: measured=%v predicted=%v", meas, pred)
	}
	const tol = 0.04
	if diff := meas - pred; diff < -tol || diff > tol {
		t.Errorf("rotate: measured FPR %.4f vs Eq. (2) predicted %.4f — diverge beyond %.2f",
			meas, pred, tol)
	}
	t.Logf("rotate: slots=%d addresses=%d measured=%.4f predicted=%.4f", slots, n, meas, pred)
}
