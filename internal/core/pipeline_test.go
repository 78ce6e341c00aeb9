package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// TestConfigValidation exercises the centralized Config checks: New funnels
// every mode through normalize/makeStores, so a bad configuration fails with
// the same descriptive error everywhere. Mode 3 was the existence pipeline; it
// is refused like any other unknown mode.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{"negative workers", Config{Mode: ModeParallel, Workers: -1}, "Workers"},
		{"negative queue cap", Config{Mode: ModeMT, QueueCap: -3}, "QueueCap"},
		{"negative slots", Config{Mode: ModeSerial, SlotsPerWorker: -5}, "SlotsPerWorker"},
		{"bad backend spec", Config{Mode: ModeParallel, Workers: 1, Backend: "no-such-backend"}, "Config.Backend"},
		{"slots past MaxSlots", Config{Mode: ModeParallel, Workers: 2, SlotsPerWorker: sig.MaxSlots + 1}, "sig.MaxSlots"},
		{"retired mode", Config{Mode: 3}, "unknown Mode"},
		{"unknown mode", Config{Mode: Mode(42)}, "unknown Mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(tc.cfg)
			if err == nil {
				t.Fatalf("New(%+v) = %T, want error", tc.cfg, p)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestNewDispatch drives each mode end-to-end through the one constructor.
// ModeSerial ignores Workers: one worker, no rings, and no goroutine started
// (its engine runs on the caller's thread).
func TestNewDispatch(t *testing.T) {
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		t.Run(mode.String(), func(t *testing.T) {
			before := runtime.NumGoroutine()
			p, err := New(Config{Mode: mode, Workers: 2, Backend: "perfect"})
			if err != nil {
				t.Fatal(err)
			}
			p.Access(event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1), TS: 1})
			p.Access(event.Access{Addr: 0x100, Kind: event.Read, Loc: loc.Pack(1, 2), TS: 2})
			if mode == ModeSerial {
				if started := runtime.NumGoroutine() - before; started > 0 || len(p.workers) != 1 || p.rings != nil {
					t.Errorf("%d workers, %d rings, %d goroutines started; want 1, 0, 0", len(p.workers), len(p.rings), started)
				}
			}
			res := p.Flush()
			if res.Stats.Accesses != 2 {
				t.Errorf("accesses = %d, want 2", res.Stats.Accesses)
			}
			if res.Deps.Unique() == 0 {
				t.Error("no dependences detected")
			}
		})
	}
}

// TestDoubleFlushPanicsEveryMode: every mode is one Profiler with one Flush,
// so all three fail identically.
func TestDoubleFlushPanicsEveryMode(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("%s: second Flush did not panic", name)
				return
			}
			if s, ok := r.(string); !ok || !strings.Contains(s, "Flush called twice") {
				t.Errorf("%s: panic %v does not mention double flush", name, r)
			}
		}()
		f()
	}
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		p := mustNew(t, Config{Mode: mode, Workers: 2, Backend: "perfect"})
		p.Flush()
		expectPanic(mode.String(), func() { p.Flush() })
	}
}

func TestImbalance(t *testing.T) {
	if got := Imbalance(nil); got != 1 {
		t.Errorf("empty = %v", got)
	}
	if got := Imbalance([]uint64{5, 5, 5, 5}); got != 1 {
		t.Errorf("even = %v", got)
	}
	if got := Imbalance([]uint64{30, 0, 0, 0, 0, 0}); got != 6 {
		t.Errorf("skewed = %v, want 6", got)
	}
	if got := Imbalance([]uint64{0, 0}); got != 1 {
		t.Errorf("all-zero = %v", got)
	}
}

// workerStates reads the goroutine dump for the worker goroutines the
// calling goroutine's New started, and returns each one's state ("chan
// receive", "runnable", ...).
func workerStates(t *testing.T) []string {
	t.Helper()
	self := make([]byte, 64)
	self = self[:runtime.Stack(self, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(self), "goroutine "), " ")
	creator := "created by ddprof/internal/core.New in goroutine " + id + "\n"
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, creator) {
			continue
		}
		_, state, _ := strings.Cut(g, "[")
		state, _, _ = strings.Cut(state, "]")
		state, _, _ = strings.Cut(state, ",") // "chan receive, 2 minutes"
		states = append(states, state)
	}
	return states
}

// TestIdleWorkersPark: a pipelined profiler's workers with nothing to do are
// parked on their rings, not runnable — within a second of New and again
// after a batch — and Flush still joins every one of them: within a second of
// it no worker goroutine is left (Flush returns once each worker's deferred
// Done has run, which can be just before its goroutine exits).
func TestIdleWorkersPark(t *testing.T) {
	const workers = 4
	for _, mode := range []Mode{ModeParallel, ModeMT} {
		t.Run(mode.String(), func(t *testing.T) {
			p := mustNew(t, Config{Mode: mode, Workers: workers})
			await := func(when, want string, ok func(states []string) bool) {
				t.Helper()
				var states []string
				for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
					if states = workerStates(t); ok(states) {
						return
					}
				}
				t.Fatalf("%s: worker states %q, want %s", when, states, want)
			}
			allParked := func(states []string) bool {
				return len(states) == workers && !slices.ContainsFunc(states, func(s string) bool { return s != "chan receive" })
			}
			await("after New", "4 parked (chan receive)", allParked)

			batch := make([]event.Access, event.BatchSize)
			for i := range batch {
				batch[i] = event.Access{Addr: uint64(i) * 8, Loc: loc.Pack(1, i%7+1), Kind: event.Kind(i & 1), TS: 1}
			}
			p.AccessBatch(batch, nil)
			await("after one batch", "4 parked (chan receive)", allParked)

			if res := p.Flush(); res.Stats.Accesses != event.BatchSize {
				t.Errorf("Flush: %d accesses, want %d", res.Stats.Accesses, event.BatchSize)
			}
			await("after Flush", "none left", func(states []string) bool { return len(states) == 0 })
		})
	}
}

// TestRangeRefWithoutRanges: a RangeRef slot handed over without the ranges
// it indexes is refused on the caller's goroutine, by every mode, and nothing
// of its batch is profiled.
func TestRangeRefWithoutRanges(t *testing.T) {
	batch := []event.Access{
		{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1)},
		{Kind: event.RangeRef},
	}
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		for _, one := range []bool{false, true} {
			p := mustNew(t, Config{Mode: mode, Workers: 2, Backend: "perfect"})
			func() {
				const want = "core: AccessBatch: a RangeRef slot without the ranges it indexes"
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%v one=%v: recovered %v, want the refusal %q", mode, one, got, want)
					}
				}()
				if one {
					p.Access(batch[1])
				} else {
					p.AccessBatch(batch, nil)
				}
			}()
			if res := p.Flush(); res.Stats.Accesses != 0 || res.Deps.Unique() != 0 {
				t.Errorf("%v one=%v: %d accesses, %d dependences profiled from a refused batch", mode, one, res.Stats.Accesses, res.Deps.Unique())
			}
		}
	}
}

// TestShardedOccupancyReproducer is DESIGN.md's reproducer of the reachable-
// slots defect: two workers, SlotsPerWorker 1024, 100,000 consecutive words
// written. Each worker's table is full, so the gauge reads 1000 (it read 500
// when a worker held 1024 indices and reached 512).
func TestShardedOccupancyReproducer(t *testing.T) {
	for _, mode := range []Mode{ModeParallel, ModeMT} {
		pipe := telemetry.NewRegistry().Pipeline("t")
		p := mustNew(t, Config{Mode: mode, Workers: 2, SlotsPerWorker: 1024, Metrics: pipe})
		for i := uint64(0); i < 100_000; i++ {
			p.Access(event.Access{Kind: event.Write, Addr: 0x1000 + 8*i})
		}
		p.Flush()
		if got := pipe.SigOccupancyPermille.Load(); got != 1000 {
			t.Errorf("%v: sig_occupancy_permille = %d, want 1000", mode, got)
		}
	}
}

// TestRegisteredBackends pins the store choice every binary and daemon
// session has to the three spec forms, and the §III-B baselines and the
// retired hybrid tier (EXPERIMENTS.md decision record) to their refusals.
func TestRegisteredBackends(t *testing.T) {
	for spec, want := range map[string]string{
		"":                   "*sig.Signature",
		"signature":          "*sig.Signature",
		"signature:slots=4k": "*sig.Signature",
		"perfect":            "*sig.PerfectSignature",
	} {
		if p, err := New(Config{Backend: spec}); err != nil {
			t.Errorf("%q: %v", spec, err)
		} else if got := fmt.Sprintf("%T", p.workers[0].eng.Store()); got != want {
			t.Errorf("%q opens a %s, want %s", spec, got, want)
		}
	}
	const forms = "(want signature, signature:slots=N (k/m/g suffixes) or perfect)"
	for spec, want := range map[string]string{
		"shadow":                     `sig: store "shadow" is a §III-B baseline of ddexp stores, not a profiling store ` + forms,
		"hashtab:buckets=64k":        `sig: store "hashtab" is a §III-B baseline of ddexp stores, not a profiling store ` + forms,
		"hybrid:slots=1m,exact=4096": `sig: unknown store spec "hybrid:slots=1m,exact=4096" ` + forms,
	} {
		if _, err := sig.OpenStore(spec, 0); err == nil || err.Error() != want {
			t.Errorf("%q: err = %v, want %q", spec, err, want)
		}
	}
}
