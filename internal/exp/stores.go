package exp

import (
	"fmt"

	"ddprof/internal/report"
	"ddprof/internal/stats"
	"ddprof/internal/workloads"
)

// StoreAccuracyRow is one backend/size point of the measured-FPR ablation.
type StoreAccuracyRow struct {
	Family    string // workload suite ("nas", "starbench")
	Program   string
	Backend   string // registry spec profiled
	Slots     int    // signature slots m (0 for exact backends)
	Addresses int    // distinct addresses n in the stream
	// Predicted is Equation (2), Pfp = 1 − (1 − 1/m)^n, in percent — the
	// paper's model of the slot-collision probability. Zero for exact
	// backends.
	Predicted float64
	// Measured compares the backend's dependence set against the exact
	// ground truth at merged-dependence granularity.
	Measured stats.Rates
}

// StoreAccuracy measures each backend's false-positive rate against exact
// ground truth, per workload family, and puts the measurement next to the
// Equation (2) prediction. One representative per family keeps the run
// short: CG for the NAS solvers, rgbyuv for the address-heavy Starbench
// kernels. Exact backends must measure 0/0; the signature's measured FPR
// tracks (and stays under) the Eq. (2) slot-collision bound, since a slot
// collision is necessary but not sufficient for a spurious dependence.
func StoreAccuracy(opt Options) (*report.Table, []StoreAccuracyRow, error) {
	opt = opt.norm()
	var rows []StoreAccuracyRow
	for _, name := range []string{"CG", "rgbyuv"} {
		if !opt.want(name) {
			continue
		}
		w, ok := workloads.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("unknown workload %q", name)
		}
		p := w.Build(opt.wcfg())
		cap, _, err := captureRun(p)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		truth, err := replay(cap, perfectSerial(w.Build(opt.wcfg())))
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", name, err)
		}
		n := cap.Addresses()

		measure := func(spec string, slots int) error {
			got, err := replay(cap, backendSerial(w.Build(opt.wcfg()), spec, 0))
			if err != nil {
				return fmt.Errorf("%s %s: %w", name, spec, err)
			}
			row := StoreAccuracyRow{
				Family:    w.Suite,
				Program:   name,
				Backend:   spec,
				Slots:     slots,
				Addresses: n,
				Measured:  stats.Compare(truth.Deps, got.Deps),
			}
			if slots > 0 {
				row.Predicted = 100 * stats.PredictedFP(float64(slots), float64(n))
			}
			rows = append(rows, row)
			return nil
		}

		if err := measure("shadow", 0); err != nil {
			return nil, nil, err
		}
		for _, m := range opt.Slots {
			if err := measure(fmt.Sprintf("signature:slots=%d", m), m); err != nil {
				return nil, nil, err
			}
		}
	}

	tab := &report.Table{
		Title:   "Store accuracy: measured FPR vs the Equation (2) prediction, per workload family",
		Headers: []string{"Family", "Program", "backend", "m (slots)", "n (addresses)", "Eq2 Pfp", "measured FPR", "FNR"},
	}
	for _, r := range rows {
		m := "—"
		pred := "—"
		if r.Slots > 0 {
			m = report.SI(float64(r.Slots))
			pred = fmt.Sprintf("%.3f%%", r.Predicted)
		}
		tab.AddRow(r.Family, r.Program, r.Backend, m, report.SI(float64(r.Addresses)),
			pred, fmt.Sprintf("%.3f%%", r.Measured.FPR), fmt.Sprintf("%.3f%%", r.Measured.FNR))
	}
	tab.Notes = append(tab.Notes,
		"Eq2 Pfp bounds the slot-collision probability; a collision is necessary but not",
		"sufficient for a spurious dependence, so measured FPR <= the bound. Exact rows are 0.")
	return tab, rows, nil
}
