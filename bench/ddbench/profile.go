package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ddprof/internal/analysis"
	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/server"
	"ddprof/internal/stats"
	"ddprof/internal/telemetry"
	"ddprof/internal/vm"
)

// paperRedistribute is the paper's load-balance interval (§IV-A), the
// default every front end of the profiler uses.
const paperRedistribute = 50000

// coreConfig is the profiler configuration a user of the workload's mode
// gets — what ddprof.Profile builds, at the harness's fixed worker count.
func (w workload) coreConfig(t *target) core.Config {
	cfg := core.Config{
		Workers:           workers,
		SlotsPerWorker:    t.slots / workers,
		Meta:              t.prog.Meta,
		RedistributeEvery: paperRedistribute,
	}
	switch w.via {
	case viaSerial, viaRemote:
		cfg.Mode = core.ModeSerial
		cfg.Workers = 1
		cfg.SlotsPerWorker = t.slots
	case viaParallel:
		cfg.Mode = core.ModeParallel
	case viaMT:
		cfg.Mode = core.ModeMT
		cfg.RaceCheck = true
	}
	return cfg
}

// runOptions are the executor options the workload's mode needs: MT targets
// are timestamped (§V-B).
func (w workload) runOptions() interp.Options {
	return interp.Options{Timestamps: w.via == viaMT}
}

// profile is the outcome of profiling one target once.
type profile struct {
	wall, cpu time.Duration // Profile start to DDP1 bytes complete, as measured
	// wallRef and cpuRef are the same in seconds of a machine at nominal
	// speed: divided by the slowdown of the yardstick samples taken just
	// before and just after the interval (yardstick.go).
	wallRef, cpuRef float64
	peakRSS         uint64 // VmHWM when the DDP1 bytes were complete
	events          uint64
	deps            *dep.Set
	digest          [32]byte
	ddp1Bytes       int
	// stats and workerEvents are the pipeline's own counters; a remote
	// session reports only the store footprint the daemon publishes.
	stats        core.RunStats
	workerEvents []uint64
}

// accountedBytes is the profiler's memory by the paper's own accounting
// (Fig. 7/8): access-history stores, queues and chunks, and the merged
// dependence set.
func (p *profile) accountedBytes() uint64 {
	return p.stats.StoreBytes + p.stats.QueueBytes + depSetBytes(p.deps.Unique())
}

// depSetBytes models dep.Set's footprint for n dependences: 56-byte entries
// in 512-entry slab pages plus one 8-byte index word per slot of a
// power-of-two table kept under 3/4 load (internal/dep's layout; the set
// exposes no byte count of its own).
func depSetBytes(n int) uint64 {
	if n == 0 {
		return 0
	}
	const entryBytes, pageEntries = 56, 512
	pages := (n + pageEntries - 1) / pageEntries
	index := 64
	for index*3/4 < n {
		index *= 2
	}
	return uint64(pages*pageEntries*entryBytes + index*8)
}

// env is one completed set-up: built targets with their references and, for
// the remote workload, a running daemon.
type env struct {
	w       workload
	smoke   bool
	targets []*target
	buf     bytes.Buffer    // DDP1 output, reused across profiles
	yards   []time.Duration // yardstick samples taken through set-up

	srv      *server.Server
	reg      *telemetry.Registry
	sock     string
	serveErr chan error
}

// setUp builds the seed's programs, computes each one's reference profile
// (and, for a tight workload, its address census and slot budget) and starts
// the daemon a remote workload talks to. sockDir holds the unix socket.
func setUp(w workload, seed int64, smoke bool, sockDir string) (*env, error) {
	targets, err := w.targets(seed, smoke)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, smoke: smoke, targets: targets}
	e.yards = append(e.yards, e.yardstick())
	for _, t := range targets {
		if err := e.reference(t); err != nil {
			return nil, fmt.Errorf("%s/%s: reference: %w", w.name, t.name, err)
		}
		if w.tight {
			var c census
			if _, err := vm.Run(t.prog, &c, w.runOptions()); err != nil {
				return nil, fmt.Errorf("%s/%s: census: %w", w.name, t.name, err)
			}
			t.addresses = c.addresses
			t.slots = tightSlots(t.addresses)
		}
		e.yards = append(e.yards, e.yardstick())
	}
	if w.via == viaRemote {
		if err := e.startDaemon(sockDir); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// census is a hook counting the distinct addresses a sequential target
// reads or writes: one bit per 8-byte word of the simulated address space.
// It counts what event.Recorder.Addresses counts (the ledger holds the two to
// each other) at a hundredth of the cost, which keeps set-up inside the
// run's time cap.
type census struct {
	seen      []uint64
	addresses int
}

// Access implements event.Hook.
func (c *census) Access(a event.Access) {
	if !isData(&a) {
		return
	}
	word := a.Addr >> 3
	i, bit := word>>6, uint64(1)<<(word&63)
	if i >= uint64(len(c.seen)) {
		c.seen = append(c.seen, make([]uint64, i+1-uint64(len(c.seen)))...)
	}
	if c.seen[i]&bit == 0 {
		c.seen[i] |= bit
		c.addresses++
	}
}

// reference profiles t with the tree-walking interpreter and the perfect
// store — independent of the VM, the signature and the pipeline under test.
// Sequential targets go through the serial profiler; threaded ones through
// ModeMT, whose key set must then repeat from one set-up to the next.
func (e *env) reference(t *target) error {
	cfg := core.Config{Mode: core.ModeSerial, Backend: "perfect", Meta: t.prog.Meta}
	if e.w.via == viaMT {
		cfg.Mode = core.ModeMT
		cfg.Workers = workers
		cfg.RaceCheck = true
	}
	prof, err := core.New(cfg)
	if err != nil {
		return err
	}
	info, err := interp.Run(t.prog, prof, e.w.runOptions())
	res := prof.Flush() // also on error: Flush is what stops the workers
	if err != nil {
		return err
	}
	t.events = info.Accesses
	t.ref = res.Deps
	var buf bytes.Buffer
	if err := dep.Encode(&buf, res.Deps, t.prog.Tab, info.LoopRecords); err != nil {
		return err
	}
	t.digest = sha256.Sum256(buf.Bytes())
	return nil
}

// startDaemon runs an in-process ddprofd on a unix socket, configured so that
// every session is a serial one with the ample signature: the remote workload
// then differs from seq-serial by the wire alone.
func (e *env) startDaemon(sockDir string) error {
	if err := os.MkdirAll(sockDir, 0o755); err != nil {
		return err
	}
	e.sock = filepath.Join(sockDir, fmt.Sprintf("ddbench-%d.sock", os.Getpid()))
	_ = os.Remove(e.sock) // a stale socket of a killed run with our pid
	ln, err := net.Listen("unix", e.sock)
	if err != nil {
		return fmt.Errorf("daemon listen: %w", err)
	}
	e.reg = telemetry.NewRegistry()
	e.srv = server.New(server.Config{
		WorkerBudget:      1,
		WorkersPerSession: 1,
		SessionSlots:      ample(e.smoke),
		Registry:          e.reg,
		SnapshotSamples:   -1,
	})
	e.serveErr = make(chan error, 1)
	go func() { e.serveErr <- e.srv.Serve(ln) }()
	return nil
}

// close stops the daemon, if any, and waits for its goroutines.
func (e *env) close() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.serveErr; err == nil {
		err = serr
	}
	e.srv = nil
	_ = os.Remove(e.sock) // the listener unlinks it; this covers a failed start
	return err
}

// profileOne profiles t once the way the workload's users would — a whole
// program in, DDP1 bytes out — and times that interval. tr, when non-nil,
// gets a span around every call into a layer.
func (e *env) profileOne(t *target, tr *tracer) (*profile, error) {
	// Collect the previous profile's garbage and restart the resident-set
	// high-water mark outside the clock, so that peak_rss_mb is one profile's
	// footprint, as a user running one program per process sees it, and not
	// a race with the collector or the maximum over a whole run.
	if e.srv != nil {
		// The daemon answers before it tears the session down; wait, or the
		// collection below races the previous session's store.
		for i := 0; e.srv.ActiveSessions() > 0 && i < 2000; i++ {
			time.Sleep(time.Millisecond)
		}
	}
	runtime.GC()
	resetPeakRSS()
	before := e.yardstick()
	p, err := e.profileTimed(t, tr)
	if err != nil {
		return nil, err
	}
	speed := machineSpeed(before, e.yardstick())
	p.wallRef, p.cpuRef = p.wall.Seconds()/speed, p.cpu.Seconds()/speed
	p.peakRSS, err = peakRSS()
	return p, err
}

// profileTimed is the timed part of profileOne.
func (e *env) profileTimed(t *target, tr *tracer) (*profile, error) {
	if e.w.via == viaRemote {
		return e.profileRemote(t, tr)
	}
	p := &profile{}
	root := tr.begin("Profile")
	cpu0, t0 := cpuTime(), time.Now()

	s := tr.begin("core.New")
	prof, err := core.New(e.w.coreConfig(t))
	tr.end(s)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	s = tr.begin("vm.Run")
	info, err := vm.Run(t.prog, prof, e.w.runOptions())
	tr.end(s)
	s = tr.begin("Profiler.Flush")
	res := prof.Flush() // also on error: Flush is what stops the workers
	tr.end(s)
	if err != nil {
		tr.end(root)
		return nil, err
	}
	s = tr.begin("analysis.DiscoverParallelism")
	loops := analysis.DiscoverParallelism(t.prog.Meta, res, info.LoopIters)
	tr.end(s)
	s = tr.begin("dep.Encode")
	e.buf.Reset()
	err = dep.Encode(&e.buf, res.Deps, t.prog.Tab, info.LoopRecords)
	tr.end(s)

	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	tr.end(root)
	if err != nil {
		return nil, err
	}
	if len(loops) == 0 {
		return nil, errors.New("no loop reports")
	}
	p.events = info.Accesses
	p.deps = res.Deps
	p.stats = res.Stats
	p.workerEvents = res.WorkerEvents
	p.digest = sha256.Sum256(e.buf.Bytes())
	p.ddp1Bytes = e.buf.Len()
	return p, nil
}

// profileRemote is profileOne over the wire: one connection, one session.
func (e *env) profileRemote(t *target, tr *tracer) (*profile, error) {
	p := &profile{}
	root := tr.begin("Profile")
	defer tr.end(root)
	cpu0, t0 := cpuTime(), time.Now()

	s := tr.begin("net.Dial")
	conn, err := net.Dial("unix", e.sock)
	tr.end(s)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s = tr.begin("server.ProfileRemote")
	rr, err := server.ProfileRemote(conn, t.prog, server.ClientOptions{Workers: 1})
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("dep.Encode")
	e.buf.Reset()
	err = dep.Encode(&e.buf, rr.Deps, rr.Tab, rr.LoopRecords)
	tr.end(s)

	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return nil, err
	}
	p.events = rr.Events
	p.deps = rr.Deps
	// The daemon publishes the session's store footprint at flush, which is
	// what its operator sees on /metrics; a serial session has no queues.
	p.stats.StoreBytes = uint64(e.reg.Gauge("pipeline_store_bytes").Load())
	p.digest = sha256.Sum256(e.buf.Bytes())
	p.ddp1Bytes = e.buf.Len()
	return p, nil
}

// verdict is the accuracy of one profile against its reference.
type verdict struct {
	rates stats.Rates
	fails []string
}

// verify checks one profile: the event count against the reference
// interpreter's, the dependence keys against the reference set, and — where
// the profile is schedule-free and exact — the DDP1 bytes against the
// reference encoding. On the tight workload the rates must be non-zero and
// equal to want (the first profile of the same target in this process, or
// the pin of the default seed); want is nil for that first profile.
func (e *env) verify(t *target, p *profile, want *stats.Rates) verdict {
	v := verdict{rates: stats.Compare(t.ref, p.deps)}
	fail := func(format string, args ...any) {
		v.fails = append(v.fails, fmt.Sprintf("%s/%s: ", e.w.name, t.name)+fmt.Sprintf(format, args...))
	}
	if p.events != t.events {
		fail("%d events, reference interpreter counted %d", p.events, t.events)
	}
	r := v.rates
	switch {
	case e.w.tight:
		if r.FP == 0 && r.FN == 0 {
			fail("signature of %d slots for %d addresses reported no error", t.slots, t.addresses)
		}
		if want != nil && (r.FP != want.FP || r.FN != want.FN || r.Measured != want.Measured || r.Truth != want.Truth) {
			fail("accuracy moved: fp %d fn %d of %d/%d, want fp %d fn %d of %d/%d",
				r.FP, r.FN, r.Measured, r.Truth, want.FP, want.FN, want.Measured, want.Truth)
		}
	default:
		if r.FP != 0 || r.FN != 0 {
			fail("ample signature: %d false positives, %d false negatives", r.FP, r.FN)
		}
		if e.w.sequentialTarget() && p.digest != t.digest {
			fail("DDP1 digest %x differs from the reference's %x", p.digest[:6], t.digest[:6])
		}
	}
	return v
}
