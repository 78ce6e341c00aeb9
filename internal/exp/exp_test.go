package exp

import (
	"reflect"
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/workloads"
)

// small returns a fast test configuration.
func small() Options {
	o := Defaults()
	o.Scale = 0.4
	return o
}

// TestTable2GroundTruth is the headline Table II check: every NAS benchmark
// must report exactly the paper's "# OMP" and "# identified" columns, the
// signature profiler must identify exactly the same loops as the perfect
// one (0 missed), and nothing extra.
func TestTable2GroundTruth(t *testing.T) {
	tab, rows, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	want := map[string][2]int{}
	for _, w := range workloads.NAS() {
		want[w.Name] = [2]int{w.OMPLoops, w.Identified}
	}
	for _, r := range rows {
		exp := want[r.Program]
		if r.OMP != exp[0] {
			t.Errorf("%s: OMP = %d, want %d", r.Program, r.OMP, exp[0])
		}
		if r.IdentifiedDP != exp[1] {
			t.Errorf("%s: identified(DP) = %d, want %d", r.Program, r.IdentifiedDP, exp[1])
		}
		if r.IdentifiedSig != r.IdentifiedDP {
			t.Errorf("%s: sig identified %d, DP identified %d", r.Program, r.IdentifiedSig, r.IdentifiedDP)
		}
		if r.MissedSig != 0 || r.ExtraSig != 0 {
			t.Errorf("%s: missed=%d extra=%d, want 0/0", r.Program, r.MissedSig, r.ExtraSig)
		}
	}
	if !strings.Contains(tab.String(), "92.5") {
		t.Errorf("table should state the 92.5%% ratio:\n%s", tab.String())
	}
}

// TestTable1Shape checks the FPR/FNR trends on a representative subset:
// rates fall as the signature grows, and the largest signature is
// near-perfect.
func TestTable1Shape(t *testing.T) {
	o := small()
	o.Only = []string{"streamcluster", "tinyjpeg", "rotate"}
	_, rows, err := Table1(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Deps == 0 || r.Addresses == 0 || r.Accesses == 0 {
			t.Errorf("%s: empty row %+v", r.Program, r)
		}
		first, last := r.Rates[0], r.Rates[len(r.Rates)-1]
		if last.FPR > first.FPR+1e-9 {
			t.Errorf("%s: FPR grew with slots: %v -> %v", r.Program, first.FPR, last.FPR)
		}
		if last.FPR > 1.0 || last.FNR > 1.0 {
			t.Errorf("%s: largest signature should be near-perfect, got FPR=%.2f FNR=%.2f",
				r.Program, last.FPR, last.FNR)
		}
	}
}

func TestEq2PredictionAccuracy(t *testing.T) {
	_, rows, err := Eq2(Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if d := abs(r.Predicted - r.Measured); d > 0.02 {
			t.Errorf("m=%d n=%d: |pred-meas| = %.4f", r.M, r.N, d)
		}
	}
}

func TestMergeAblationFactors(t *testing.T) {
	o := small()
	o.Only = []string{"CG", "MG"}
	_, rows, err := MergeAblation(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Factor < 10 {
			t.Errorf("%s: merge factor only %.1fx — merging should collapse repeated instances", r.Program, r.Factor)
		}
	}
}

func TestFig9BandedPattern(t *testing.T) {
	_, res, err := Fig9(small())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Matrix
	if m.CrossThread() == 0 {
		t.Fatal("no cross-thread communication detected")
	}
	// Ring-neighbour volume must dominate distant pairs: compare the
	// average neighbour cell against the average distance-3 cell.
	T := m.Threads
	var nb, far uint64
	for p := 0; p < T; p++ {
		nb += m.M[p][(p+1)%T] + m.M[p][(p+T-1)%T]
		far += m.M[p][(p+3)%T]
	}
	if nb <= far*2 {
		t.Errorf("no banded structure: neighbours=%d far=%d\n%s", nb, far, res.Heatmap)
	}
	if !strings.Contains(res.Heatmap, "(producer)") {
		t.Error("heatmap missing")
	}
}

// TestFig5SmokeSubset runs the timing experiment on two workloads only and
// checks basic sanity (positive slowdowns, parallel no slower than ~serial
// beyond noise is NOT asserted — timing is environment-dependent).
func TestFig5SmokeSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	o := small()
	o.Only = []string{"EP", "rotate"}
	tab, rows, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Serial <= 0 || r.LockFree8T <= 0 || r.LockBased8T <= 0 || r.LockFree16T <= 0 {
			t.Errorf("%s: non-positive slowdowns: %+v", r.Program, r)
		}
	}
	if !strings.Contains(tab.String(), "nas-average") {
		t.Error("missing suite average row")
	}
}

func TestFig6SmokeSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	o := small()
	o.Only = []string{"rgbyuv"}
	_, rows, err := Fig6(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Workers8 <= 0 || rows[0].Workers16 <= 0 {
		t.Errorf("bad rows: %+v", rows)
	}
}

func TestFig7MemoryAccounting(t *testing.T) {
	o := small()
	o.Only = []string{"FT", "streamcluster"}
	_, rows, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.T8 == 0 || r.T16 == 0 {
			t.Errorf("%s: zero memory accounted: %+v", r.Program, r)
		}
		// Same total slot budget: the byte totals should be in the same
		// ballpark across worker counts (within 4x).
		hi, lo := r.T16, r.T8
		if hi < lo {
			hi, lo = lo, hi
		}
		if hi > 4*lo {
			t.Errorf("%s: 8T vs 16T memory wildly different: %d vs %d", r.Program, r.T8, r.T16)
		}
	}
}

func TestFig8MemoryAccounting(t *testing.T) {
	o := small()
	o.Only = []string{"md5"}
	_, rows, err := Fig8(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].T8 == 0 {
		t.Errorf("bad rows: %+v", rows)
	}
}

func TestStoreAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment")
	}
	_, rows, err := StoreAblation(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	if !strings.HasPrefix(rows[0].Store, "signature") {
		t.Fatal("first row must be the signature baseline")
	}
	for _, r := range rows[1:] {
		if r.RelativeToSig <= 0 {
			t.Errorf("%s: bad relative time %v", r.Store, r.RelativeToSig)
		}
	}
}

// TestStoreAccuracy is the measured-FPR-vs-ground-truth ablation: exact
// backends must measure clean and the signature's FPR must stay at or under
// the Eq. (2) collision bound.
func TestStoreAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("replays two workload captures per backend")
	}
	o := small()
	_, rows, err := StoreAccuracy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.Slots == 0 {
			if r.Measured.FPR != 0 || r.Measured.FNR != 0 {
				t.Errorf("%s/%s: exact backend measured FPR=%.2f FNR=%.2f", r.Program, r.Backend, r.Measured.FPR, r.Measured.FNR)
			}
			continue
		}
		if r.Measured.FPR > r.Predicted+1e-9 {
			t.Errorf("%s/%s: measured FPR %.2f%% above Eq2 bound %.2f%%", r.Program, r.Backend, r.Measured.FPR, r.Predicted)
		}
	}
}

func TestOnlyFilter(t *testing.T) {
	o := small()
	o.Only = []string{"EP"}
	_, rows, err := Table2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Program != "EP" {
		t.Errorf("Only filter broken: %+v", rows)
	}
}

func TestPaperScaleOptions(t *testing.T) {
	o := PaperScale()
	if o.Slots[2] != 100_000_000 || o.SlotsPerWorker != 6_250_000 || o.Reps != 3 {
		t.Errorf("paper-scale options wrong: %+v", o)
	}
}

// TestBalanceOrdering: redistribution must not worsen the modulo imbalance,
// and round-robin dealing must be near-perfect (§IV-A / §VI-B).
func TestBalanceOrdering(t *testing.T) {
	o := Defaults() // full scale: enough chunks for the statistics to settle
	o.Only = []string{"kmeans"}
	_, rows, err := Balance(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Modulo < 1 || r.Redistributed < 1 || r.RoundRobin < 1 {
		t.Errorf("imbalance below 1: %+v", r)
	}
	if r.Redistributed > r.Modulo*1.05 {
		t.Errorf("redistribution worsened balance: %.2f -> %.2f", r.Modulo, r.Redistributed)
	}
	if r.RoundRobin > 1.25 {
		t.Errorf("round-robin not balanced: %.2f", r.RoundRobin)
	}
	if r.Migrations == 0 {
		t.Error("no migrations performed")
	}
	if r.RoundRobin > r.Modulo {
		t.Errorf("round-robin (%.2f) should not be worse than modulo (%.2f)", r.RoundRobin, r.Modulo)
	}
}

// skewedStream records 200,000 accesses with 80 % of the traffic on ONE address.
func skewedStream() *event.Recorder {
	rec := event.NewRecorder()
	for i := 0; i < 200000; i++ {
		a := uint64(0x9000)
		if i%5 == 4 {
			a = uint64(0x10000 + 8*(i%1000))
		}
		k := event.Read
		if i%3 == 0 {
			k = event.Write
		}
		rec.Access(event.Access{Addr: a, Kind: k, Loc: loc.Pack(1, 1+i%20)})
	}
	return rec
}

// TestRoundRobinBalancesSkewedStreams is the §VI-B claim: under a heavily
// skewed address distribution, dealing chunks round-robin stays balanced
// while the address-partitioned profiler is imbalanced.
func TestRoundRobinBalancesSkewedStreams(t *testing.T) {
	rec := skewedStream()
	typed, err := replay(rec, core.Config{Mode: core.ModeParallel, Workers: 4, Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	dealt := dealRoundRobin(rec.Events(), 4)
	if imb := core.Imbalance(typed.WorkerEvents); imb < 2.0 {
		t.Errorf("address partitioning should be imbalanced on this stream: %.2f (events %v)", imb, typed.WorkerEvents)
	}
	if imb := core.Imbalance(dealt); imb > 1.1 {
		t.Errorf("round-robin should be near-perfectly balanced: %.2f (events %v)", imb, dealt)
	}
	var sum uint64
	for _, n := range dealt {
		sum += n
	}
	if sum != typed.Stats.Accesses {
		t.Errorf("dealt %d accesses, the profiler counted %d", sum, typed.Stats.Accesses)
	}
}

// TestDealRedistributed holds the §IV-A ablation to what it claims on the same
// skewed stream: the modulo deal is imbalanced, redistribution moves at least
// one address and does not lose, and with no checks it is the modulo deal —
// the profiler's own ownership.
func TestDealRedistributed(t *testing.T) {
	rec := skewedStream()
	typed, err := replay(rec, core.Config{Mode: core.ModeParallel, Workers: 4, Backend: "perfect"})
	if err != nil {
		t.Fatal(err)
	}
	modulo, moved := dealRedistributed(rec.Events(), 4, 0)
	if moved != 0 || !reflect.DeepEqual(modulo, typed.WorkerEvents) {
		t.Errorf("every = 0 dealt %v with %d migrations, the profiler's workers saw %v", modulo, moved, typed.WorkerEvents)
	}
	if imb := core.Imbalance(modulo); imb < 2.0 {
		t.Errorf("modulo should be imbalanced on this stream: %.2f (events %v)", imb, modulo)
	}
	dealt, moved := dealRedistributed(rec.Events(), 4, 4)
	if moved == 0 {
		t.Error("no address migrated")
	}
	// One address carries 80 %, so there is nothing to win here; re-dealing
	// the light ones must not lose either (TestBalanceOrdering's tolerance).
	if core.Imbalance(dealt) > core.Imbalance(modulo)*1.05 {
		t.Errorf("redistribution worsened balance: %v -> %v", modulo, dealt)
	}
}

// TestSweepMonotoneTail: the FPR/FNR curve must be non-increasing from the
// footprint onward and exactly zero once slots exceed it.
func TestSweepMonotoneTail(t *testing.T) {
	o := small()
	_, rows, err := Sweep(o, "rotate")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.FPR != 0 || last.FNR != 0 {
		t.Errorf("largest signature not clean: FPR=%.2f FNR=%.2f", last.FPR, last.FNR)
	}
	if rows[0].FPR == 0 {
		t.Error("smallest signature shows no collisions — sweep range wrong")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Predicted > rows[i-1].Predicted+1e-9 {
			t.Error("Eq.(2) prediction must decrease with slots")
		}
	}
	if _, _, err := Sweep(o, "nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}
