package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/trace"
	"ddprof/internal/vm"
)

// ClientOptions configure one remote profiling session.
type ClientOptions struct {
	// Workers is the per-session pipeline worker hint; 0 asks for the
	// server's default.
	Workers int
	// Backend requests a store spec for the session ("perfect",
	// "signature:slots=1m", ...), resolved against the daemon's backend
	// registry and memory budget; empty accepts the daemon's default.
	Backend string
	// SchedulerFuzz is passed to the executor (visibility fuzz for targets
	// that spawn threads).
	SchedulerFuzz int
	// FrameBytes sizes the trace writer's slab — and since every full slab
	// goes out as one record-aligned wire frame, it bounds the frame the
	// daemon decodes in one batch. Larger frames amortize framing and decode
	// overhead; they must stay within the daemon's frame cap (1MiB by
	// default). 0 selects the 64KiB default; values under 107 bytes (room
	// for one maximal record) are raised to that.
	FrameBytes int
	// Timeout bounds every socket read and write. Default 60s.
	Timeout time.Duration
}

// RemoteResult is the outcome of a remote profiling session.
type RemoteResult struct {
	// Deps is the dependence set profiled by the daemon.
	Deps *dep.Set
	// Tab maps the variable IDs in Deps back to names (decoded from the
	// daemon's response; identical to the target program's own table).
	Tab *loc.Table
	// LoopRecords are the executed-loop records from the local recording
	// run, for Figure-1-style output (the daemon sees only the trace).
	LoopRecords []dep.LoopRecord
	// Events is the number of accesses recorded and streamed.
	Events uint64
	// MT reports that the target can spawn threads: its trace carried
	// timestamps, the session checked races, and the dependences name threads.
	MT bool
	// SiteDefines is the number of define records the trace carried, and
	// SiteRedefines how many of them evicted another site from its slot
	// (trace.Writer.SiteDefines): a trace near one define per event has hot
	// sites colliding in the encoder's table. The daemon counts the same pair
	// on its side of the wire (<pipeline>_trace_site_defines_total).
	SiteDefines, SiteRedefines uint64
}

// Dial connects to a ddprofd daemon. addr is either "unix:/path/to.sock" or
// a TCP host:port.
func Dial(addr string) (net.Conn, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Dial("unix", path)
	}
	return net.Dial("tcp", addr)
}

// deadlineConn applies a rolling deadline to every read and write.
type deadlineConn struct {
	net.Conn
	timeout time.Duration
}

func (d *deadlineConn) Read(p []byte) (int, error) {
	if err := d.Conn.SetReadDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Read(p)
}

func (d *deadlineConn) Write(p []byte) (int, error) {
	if err := d.Conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return d.Conn.Write(p)
}

// WriteBuffers sends v as one vectored write under one deadline; it is how a
// trace.FrameWriter puts a frame's header and payload on the socket.
func (d *deadlineConn) WriteBuffers(v *net.Buffers) (int64, error) {
	if err := d.Conn.SetWriteDeadline(time.Now().Add(d.timeout)); err != nil {
		return 0, err
	}
	return v.WriteTo(d.Conn)
}

// ProfileRemote executes p locally while streaming its access trace to a
// ddprofd daemon over conn, then returns the dependence set the daemon
// profiled. The recording hook is a trace.Writer writing frame-sized slabs
// straight to the connection (see streamTrace), behind a mutex taken once per
// batch only when p can spawn threads, so multi-threaded targets stream safely
// and sequential ones pay no lock. The connection is not closed.
//
// A target that can spawn is recorded with timestamps and asks the daemon for
// race checking. The daemon receives the target's variable table and loop
// metadata in the handshake, so the returned dependence set — carried flags,
// distances, counts — is byte-for-byte what an in-process run with the same
// store configuration produces.
func ProfileRemote(conn net.Conn, p *minilang.Program, opt ClientOptions) (*RemoteResult, error) {
	if opt.Timeout <= 0 {
		opt.Timeout = 60 * time.Second
	}
	dc := &deadlineConn{Conn: conn, timeout: opt.Timeout}

	var hs bytes.Buffer
	if err := writeHandshake(&hs, clientHandshake(p, opt)); err != nil {
		return nil, fmt.Errorf("server: sending handshake: %w", err)
	}
	if _, err := dc.Write(hs.Bytes()); err != nil {
		return nil, fmt.Errorf("server: sending handshake: %w", err)
	}
	res, err := streamTrace(dc, p, opt)
	if err != nil {
		// A daemon that refuses or evicts a session answers and hangs up
		// without reading on, which fails a later frame write; its verdict
		// says why, the failed write only that. (A write that timed out met
		// a daemon that is not answering either.)
		var nerr net.Error
		if errors.As(err, &nerr) && !nerr.Timeout() {
			if st, msg, rerr := readResponse(bufio.NewReader(dc)); rerr == nil && st != statusOK {
				return nil, fmt.Errorf("server: remote error: %s", msg)
			}
		}
		return nil, err
	}

	status, payload, err := readResponse(bufio.NewReader(dc))
	if err != nil {
		return nil, err
	}
	if status != statusOK {
		return nil, fmt.Errorf("server: remote error: %s", payload)
	}
	set, _, tab, err := dep.Decode(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("server: decoding profile: %w", err)
	}
	res.Deps, res.Tab = set, tab
	return res, nil
}

// clientHandshake builds the session preamble for p.
func clientHandshake(p *minilang.Program, opt ClientOptions) *handshake {
	var flags byte
	if !spawnFree(p) {
		flags |= flagRaceCheck
	}
	names := make([]string, p.Tab.NumVars())
	for i := range names {
		names[i] = p.Tab.VarName(loc.VarID(i))
	}
	return &handshake{Flags: flags, Backend: opt.Backend, Workers: opt.Workers, VarNames: names, Meta: p.Meta}
}

// WatchOptions configure one live-observatory subscription.
type WatchOptions struct {
	// Session is the profiling session to observe; 0 subscribes to the
	// newest active session, waiting for the next one to start when none is
	// live.
	Session uint64
	// Since restricts the catch-up frame to dependences first observed at
	// this epoch or later; 0 delivers the full profile-so-far, which is what
	// makes the folded frame stream reconstruct the exact final profile.
	Since uint32
	// Timeout bounds every socket read and write; 0 means no deadline —
	// watch streams are long-lived and quiet between epochs.
	Timeout time.Duration
}

// Watch subscribes to a ddprofd session's live observatory over conn and
// calls fn for every epoch-delta frame — each payload a complete DDP1
// profile of the dependences whose aggregates advanced during one epoch —
// until the frame marked final (the session's unshipped remainder), the end
// of the stream, or a non-nil error from fn, which stops the watch and is
// returned verbatim. A stream that terminates cleanly without a final frame
// means the watched session died before completing; Watch reports that as an
// error. The connection is not closed.
//
// Folding every received payload into one set with dep.DecodeMerge yields,
// after the final frame, the session's exact end-of-run profile (for Since
// 0): the deltas are extracted under the monotone-fold guarantee of
// dep.(*Set).ExtractDelta.
func Watch(conn net.Conn, opt WatchOptions, fn func(trace.DeltaFrame) error) error {
	var rw io.ReadWriter = conn
	if opt.Timeout > 0 {
		rw = &deadlineConn{Conn: conn, timeout: opt.Timeout}
	}
	bw := bufio.NewWriterSize(rw, 1<<12)
	h := &handshake{Watch: true, WatchSession: opt.Session, WatchSince: uint64(opt.Since)}
	if err := writeHandshake(bw, h); err != nil {
		return fmt.Errorf("server: sending watch handshake: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("server: sending watch handshake: %w", err)
	}
	br := bufio.NewReaderSize(rw, 1<<16)
	st, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("server: reading watch status: %w", noEOF(err))
	}
	if st != statusOK {
		msg, err := getString(br, maxRespPayload)
		if err != nil {
			return fmt.Errorf("server: reading watch error: %w", err)
		}
		return fmt.Errorf("server: watch refused: %s", msg)
	}
	dr := trace.NewDeltaReader(br, trace.DefaultMaxFrame)
	sawFinal := false
	for {
		f, err := dr.Next()
		if err == io.EOF {
			if !sawFinal {
				return fmt.Errorf("server: watched session ended without a final frame")
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("server: watch stream: %w", err)
		}
		if f.Final {
			sawFinal = true
		}
		if err := fn(f); err != nil {
			return err
		}
	}
}

// spawnFree reports whether p provably calls its hook from one thread only: no
// function of it, reachable or not, holds a spawn statement — the proof the VM
// takes its non-atomic arena path on.
func spawnFree(p *minilang.Program) bool { return len(minilang.Resolve(p).Spawns) == 0 }

// streamTrace executes p, streaming its framed DDT2 trace to w, and
// terminates the stream; it returns the client's half of the result. The
// recording hook is the trace.Writer itself, whose slab is the frame: the
// executor hands it thread-private batches
// (AccessBatch), and each full slab reaches w as one length-prefixed,
// record-aligned frame of at most opt.FrameBytes, with no buffering in
// between. A program that can spawn gets the SyncWriter around it — one lock
// per batch serializes the target's threads — and sync-epoch timestamps; a
// spawn-free one pays for neither.
func streamTrace(w io.Writer, p *minilang.Program, opt ClientOptions) (*RemoteResult, error) {
	fw := trace.NewFrameWriter(w)
	tw, err := trace.NewWriterSize(fw, opt.FrameBytes)
	if err != nil {
		return nil, fmt.Errorf("server: opening trace stream: %w", err)
	}
	var hook event.Hook = tw
	mt := !spawnFree(p)
	if mt {
		hook = trace.NewSyncWriter(tw)
	}
	info, err := vm.Run(p, hook, interp.Options{Timestamps: mt, YieldEvery: opt.SchedulerFuzz})
	if err != nil {
		return nil, fmt.Errorf("server: target run: %w", err)
	}
	res := &RemoteResult{LoopRecords: info.LoopRecords, Events: tw.Count(), MT: mt}
	res.SiteDefines, res.SiteRedefines = tw.SiteDefines()
	if err := tw.Close(); err != nil {
		return nil, fmt.Errorf("server: streaming trace: %w", err)
	}
	if err := fw.Close(); err != nil {
		return nil, fmt.Errorf("server: finishing stream: %w", err)
	}
	return res, nil
}
