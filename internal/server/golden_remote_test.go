package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
)

// mtProgram builds a 4-thread target with a lock-protected reduction, the
// timestamped-trace shape MT sessions stream.
func mtProgram() *minilang.Program {
	p := minilang.New("golden-mt")
	p.MainFunc(func(b *minilang.Block) {
		b.Decl("sum", minilang.Ci(0))
		b.Spawn(4, func(tb *minilang.Block) {
			tb.For("i", minilang.Ci(0), minilang.Ci(80), minilang.Ci(1),
				minilang.LoopOpt{Name: "acc"}, func(l *minilang.Block) {
					l.Lock("m", func(cb *minilang.Block) {
						cb.Reduce("sum", minilang.OpAdd, minilang.V("i"))
					})
				})
		})
	})
	return p
}

// captureTrace executes p once and returns its framed DDT2 trace — the exact
// bytes a ProfileRemote client would put on the wire, compaction included.
func captureTrace(t *testing.T, p *minilang.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw := trace.NewFrameWriter(&buf)
	tw, err := trace.NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	cw := trace.NewCompactor(tw)
	if _, err := interp.Run(p, cw, interp.Options{Timestamps: true}); err != nil {
		t.Fatal(err)
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rawRemoteProfile runs one daemon session over pre-captured trace bytes and
// returns the decoded dependence set.
func rawRemoteProfile(t *testing.T, addr string, h *handshake, raw []byte) *RemoteResult {
	t.Helper()
	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, 1<<16)
	if err := writeHandshake(bw, h); err != nil {
		t.Fatal(err)
	}
	if _, err := bw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	status, payload, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if status != statusOK {
		t.Fatalf("remote error: %s", payload)
	}
	set, _, tab, err := dep.Decode(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	return &RemoteResult{Deps: set, Tab: tab}
}

// replayTrace feeds captured trace bytes to a profiler event by event — the
// pre-batching reference semantics the daemon's batched ingest must
// reproduce: it decodes with NextBatch, then hands each point to Access and
// each range record to AccessBatch on its own.
func replayTrace(t *testing.T, prof *core.Profiler, raw []byte) {
	t.Helper()
	tr, err := trace.NewReader(trace.NewFrameReader(bytes.NewReader(raw), 0))
	if err != nil {
		t.Fatal(err)
	}
	c := event.NewChunk()
	for {
		c.Reset()
		_, err := tr.NextBatch(c)
		for _, a := range c.Events {
			if a.Kind == event.RangeRef {
				prof.AccessBatch([]event.Access{{Kind: event.RangeRef}}, []event.Range{c.Ranges[a.Addr]})
				continue
			}
			prof.Access(a)
		}
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestRemoteLocalGoldenMatrix is the batched-ingest acceptance matrix: over
// {serial, parallel, MT-timestamped} sessions × {signature, perfect} stores
// (the engine's fused arm and its interface arm),
// a remote session's dependence set must encode byte-identically to an
// in-process profiler mirroring the session's exact pipeline config. This
// pins the whole ingest path — client compaction, DDT2 framing, the batched
// decoder, and the bulk-ingest seam — to the
// local semantics.
func TestRemoteLocalGoldenMatrix(t *testing.T) {
	const slots = 1 << 16
	backends := []string{
		fmt.Sprintf("signature:slots=%d", slots),
		"perfect",
	}
	modes := []struct {
		name    string
		workers int // ClientOptions.Workers; <2 runs the session serial
		mt      bool
	}{
		{"serial", 1, false},
		{"parallel4", 4, false},
		{"mt", 1, true},
	}

	srv := New(Config{
		WorkerBudget:      8,
		WorkersPerSession: 1,
		SessionSlots:      slots,
		Registry:          telemetry.NewRegistry(),
	})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	for _, mode := range modes {
		for _, backend := range backends {
			t.Run(fmt.Sprintf("%s/%s", mode.name, backend), func(t *testing.T) {
				p := testProgram("golden", 2000)
				if mode.mt {
					p = mtProgram()
				}

				// The local twin mirrors the session pipeline the daemon
				// builds from this handshake: mode from the worker count,
				// the same store spec, race checking iff the trace is
				// timestamped.
				ccfg := core.Config{
					Meta:           p.Meta,
					Backend:        backend,
					RaceCheck:      mode.mt,
					SlotsPerWorker: slots,
				}
				if mode.workers >= 2 {
					ccfg.Mode = core.ModeParallel
					ccfg.Workers = mode.workers
				}
				prof, err := core.New(ccfg)
				if err != nil {
					t.Fatal(err)
				}

				var rr *RemoteResult
				var res *core.Result
				if mode.mt {
					// A 4-thread target interleaves differently on every
					// execution, so run it ONCE, capture the framed trace,
					// and feed the identical bytes to the daemon and to the
					// local twin.
					raw := captureTrace(t, p)
					rr = rawRemoteProfile(t, ln.Addr().String(), clientHandshake(p, ClientOptions{
						Workers: mode.workers,
						Backend: backend,
					}), raw)
					replayTrace(t, prof, raw)
					res = prof.Flush()
				} else {
					conn, err := Dial(ln.Addr().String())
					if err != nil {
						t.Fatal(err)
					}
					defer conn.Close()
					rr, err = ProfileRemote(conn, p, ClientOptions{
						Workers: mode.workers,
						Backend: backend,
					})
					if err != nil {
						t.Fatal(err)
					}
					if _, err := interp.Run(p, prof, interp.Options{}); err != nil {
						t.Fatal(err)
					}
					res = prof.Flush()
				}

				tab := loc.NewTable()
				for i := 0; i < p.Tab.NumVars(); i++ {
					tab.Var(p.Tab.VarName(loc.VarID(i)))
				}
				var local, remote bytes.Buffer
				if err := dep.Encode(&local, res.Deps, tab, nil); err != nil {
					t.Fatal(err)
				}
				if err := dep.Encode(&remote, rr.Deps, tab, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(local.Bytes(), remote.Bytes()) {
					t.Fatalf("remote profile diverges from local twin: %d vs %d bytes, %d vs %d deps",
						remote.Len(), local.Len(), rr.Deps.Unique(), res.Deps.Unique())
				}
				if rr.Deps.Unique() == 0 {
					t.Fatal("matrix cell produced an empty dependence set")
				}
			})
		}
	}
}

// TestRemoteRangesAreTheirPoints: a session fed a hand-built DDT2 stream
// with range records profiles byte-identically to a local twin of the
// session's pipeline fed the expanded stream one Access at a time — over a
// signature small enough for the stream's addresses to collide — and counts
// the ranges it ingested.
func TestRemoteRangesAreTheirPoints(t *testing.T) {
	const slots = 1 << 10
	p := testProgram("ranges", 4) // only its metadata and tables are used
	ctx := p.Meta.PushCtx(0, p.Meta.AddLoop(prog.Loop{Name: "ranges"}))

	var buf bytes.Buffer
	fw := trace.NewFrameWriter(&buf)
	tw, err := trace.NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	var evs []event.Access
	point := func(a event.Access) {
		tw.Access(a)
		evs = append(evs, a)
	}
	for i, r := range []event.Range{
		{Base: 0x1000, Stride: 8, Count: 3000, Kind: event.Write, IterDelta: 1},
		{Base: 0x1000, Stride: 8, Count: 3000, Kind: event.Read, IterDelta: 1},
		{Base: 0x9000, Stride: 24, Count: 777, Kind: event.Write, IterVec: 5, IterDelta: 1},
		{Base: 0x9000 + 24*776, Stride: ^uint64(23), Count: 777, Kind: event.Read, IterVec: 9},
		{Base: 0x44440, Stride: 0, Count: 200, Kind: event.Read},
		{Base: 0x51234, Stride: 12, Count: 400, Kind: event.Write, IterDelta: 1, Flags: event.FlagReduction},
	} {
		r.Loc, r.Var, r.CtxID = loc.Pack(7, 70+i), loc.VarID(i%p.Tab.NumVars()), ctx
		tw.Range(r)
		for j := uint32(0); j < r.Count; j++ {
			evs = append(evs, r.At(j))
		}
		rd := event.Access{Addr: r.Last(), Kind: event.Read, Loc: loc.Pack(7, 80), CtxID: ctx}
		point(rd)
		point(rd)
		point(event.Access{Addr: r.Last(), Kind: event.Remove})
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	pipe := reg.Pipeline("pipeline")
	srv := New(Config{WorkerBudget: 8, WorkersPerSession: 1, SessionSlots: slots, Registry: reg})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	for _, workers := range []int{1, 2, 3, 4} {
		for _, backend := range []string{fmt.Sprintf("signature:slots=%d", slots), "perfect"} {
			t.Run(fmt.Sprintf("%dw/%s", workers, backend), func(t *testing.T) {
				ccfg := core.Config{Mode: core.ModeSerial, SlotsPerWorker: slots, Meta: p.Meta, Backend: backend}
				if workers >= 2 {
					ccfg.Mode, ccfg.Workers = core.ModeParallel, workers
				}
				prof, err := core.New(ccfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range evs {
					prof.Access(a)
				}
				res := prof.Flush()

				ranges0, elems0 := pipe.Ranges.Load(), pipe.RangeElements.Load()
				rr := rawRemoteProfile(t, ln.Addr().String(),
					clientHandshake(p, ClientOptions{Workers: workers, Backend: backend}), buf.Bytes())

				var local, remote bytes.Buffer
				if err := dep.Encode(&local, res.Deps, rr.Tab, nil); err != nil {
					t.Fatal(err)
				}
				if err := dep.Encode(&remote, rr.Deps, rr.Tab, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(local.Bytes(), remote.Bytes()) {
					t.Errorf("remote profile diverges from the expanded stream's: %d vs %d deps",
						rr.Deps.Unique(), res.Deps.Unique())
				}
				if rr.Deps.Unique() == 0 {
					t.Error("empty dependence set")
				}
				if got := pipe.Ranges.Load() - ranges0; got != 6 {
					t.Errorf("pipeline_ranges_total moved by %d, want 6", got)
				}
				if got := pipe.RangeElements.Load() - elems0; got != 3000+3000+777+777+200+400 {
					t.Errorf("pipeline_range_elements_total moved by %d", got)
				}
			})
		}
	}
}
