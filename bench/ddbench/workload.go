package main

import (
	"fmt"
	"math"
	"math/rand"

	"ddprof/internal/dep"
	"ddprof/internal/minilang"
	"ddprof/internal/workloads"
)

// The shape of a run is fixed, not derived from the machine, so that a
// 2-core shared box runs the program and not the scheduler.
const (
	maxProcs      = 2       // GOMAXPROCS of every run
	workers       = 2       // profiler worker threads (parallel and MT modes)
	targetThreads = 2       // threads of the pthread-style targets
	ampleSlots    = 1 << 21 // the default signature: more slots than any target has addresses
	tightDivisor  = 4       // wide-tight: slots <= distinct addresses / tightDivisor
	defaultSeed   = 1
	scaleJitter   = 0.02    // a seed moves each program's Scale by at most this share
	smokeFactor   = 0.12    // -smoke shrinks every Scale by this factor
	smokeSlots    = 1 << 17 // and the ample signature, still above any smoke footprint
	setupTrials   = 3       // set-ups per run; setup_s is their median
	minReps       = 5       // timed repetitions per run, at least
)

// pipeline says how a workload's programs reach the profiler.
type pipeline int

const (
	viaSerial   pipeline = iota // core.ModeSerial, in process (§III)
	viaParallel                 // core.ModeParallel, in process (§IV)
	viaMT                       // core.ModeMT, multi-threaded targets (§V)
	viaRemote                   // server.ProfileRemote to an in-process daemon, serial session
)

func (p pipeline) String() string {
	return [...]string{"serial", "parallel", "mt", "remote"}[p]
}

// programSpec names one internal/workloads program and its nominal Scale.
type programSpec struct {
	name  string
	scale float64
}

// workload is one fixed-work input set. why is the line BENCHMARK.json
// carries; bench/README.md has the paragraph.
type workload struct {
	name     string
	via      pipeline
	tight    bool // signature sized from the address census instead of ampleSlots
	programs []programSpec
}

// The sequential kernels are sized to ~2M accesses each, the streaming ones
// to ~1.5M and the threaded ones to ~1M, so that one repetition of any
// workload takes 0.4–1.2 s on the 2-core reference box.
var (
	reuseKernels  = []programSpec{{"MG", 3.0}, {"BT", 2.9}, {"kmeans", 1.25}}
	streamKernels = []programSpec{{"rgbyuv", 2.55}, {"rotate", 3.0}, {"bodytrack", 2.2}}
	// kmeans and md5 (named in the issue) and c-ray, bodytrack, tinyjpeg,
	// streamcluster were rejected: their cross-thread dependence keys follow
	// the schedule, so a perfect-store reference does not repeat. These three
	// repeated in 40 of 40 trials.
	threadKernels = []programSpec{{"rgbyuv", 1.5}, {"rot-cc", 1.95}, {"h264dec", 1.7}}
)

var allWorkloads = []workload{
	{name: "seq-serial", via: viaSerial, programs: reuseKernels},
	{name: "seq-parallel", via: viaParallel, programs: reuseKernels},
	{name: "wide-tight", via: viaParallel, tight: true, programs: streamKernels},
	{name: "mt-threads", via: viaMT, programs: threadKernels},
	{name: "remote-session", via: viaRemote, programs: reuseKernels},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// sequentialTarget reports whether the target programs are single-threaded,
// which makes their profile — instance counts included — schedule-free.
func (w workload) sequentialTarget() bool { return w.via != viaMT }

// target is one built program plus what set-up learned about it.
type target struct {
	name  string
	scale float64
	prog  *minilang.Program

	// events is the access count of one execution, counted by the reference
	// interpreter; every repetition is asserted against it.
	events uint64
	// ref is the reference dependence set (perfect store, tree-walking
	// interpreter), and digest the SHA-256 of its DDP1 encoding.
	ref    *dep.Set
	digest [32]byte
	// addresses is the distinct-address census (tight workloads only) and
	// slots the total signature budget the profiler gets.
	addresses int
	slots     int
}

// targets builds the workload's programs for a seed: the seed permutes their
// order and moves each Scale by at most scaleJitter. The same seed gives the
// same programs; the profiler receives only the built programs.
func (w workload) targets(seed int64, smoke bool) ([]*target, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*target, 0, len(w.programs))
	for _, i := range rng.Perm(len(w.programs)) {
		ps := w.programs[i]
		wl, ok := workloads.ByName(ps.name)
		if !ok {
			return nil, fmt.Errorf("workload %s: no program %q in internal/workloads", w.name, ps.name)
		}
		scale := ps.scale * (1 + scaleJitter*(2*rng.Float64()-1))
		if smoke {
			scale *= smokeFactor
		}
		scale = math.Round(scale*1e4) / 1e4
		build := wl.Build
		if w.via == viaMT {
			build = wl.BuildParallel
		}
		out = append(out, &target{
			name:  ps.name,
			scale: scale,
			prog:  build(workloads.Config{Scale: scale, Threads: targetThreads}),
			slots: ample(smoke),
		})
	}
	return out, nil
}

// ample is the slot budget of the workloads that must profile exactly.
func ample(smoke bool) int {
	if smoke {
		return smokeSlots
	}
	return ampleSlots
}

// tightSlots is the wide-tight signature budget for a program touching the
// given number of distinct addresses: the largest power of two no greater
// than addresses/tightDivisor. A power of two is what someone would
// configure, and it keeps the budget — and profiler_mb — the same across
// seeds whose jitter moves the census by a percent or two.
func tightSlots(addresses int) int {
	s := workers // at least one slot per worker
	for s*2 <= addresses/tightDivisor {
		s *= 2
	}
	return s
}
