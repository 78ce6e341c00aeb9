package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/loc"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
)

// Config tunes the daemon. The zero value selects sensible defaults.
type Config struct {
	// MaxSessions caps concurrent client sessions; further connects are
	// refused with an error response. Default 64.
	MaxSessions int
	// WorkerBudget is the global pool of pipeline worker goroutines shared
	// by all sessions. Each session borrows up to WorkersPerSession from it;
	// when fewer than two are available a session falls back to an in-line
	// serial pipeline, which borrows none. Default 16.
	WorkerBudget int
	// WorkersPerSession is how many workers one session asks for when the
	// client gives no hint. Default 4.
	WorkersPerSession int
	// SessionSlots is the slot count of the signature a session that
	// requests no store profiles with, whatever its worker count: a parallel
	// session's workers share that one signature's slots. Default 2^20.
	SessionSlots int
	// DefaultBackend is the store spec (sig.OpenStore) of sessions that
	// request none; empty selects the signature sized from SessionSlots. A
	// handshake's spec overrides it.
	DefaultBackend string
	// MaxStoreBytes, when positive, is the daemon's per-session store
	// admission budget: a session whose stores' footprint (sig.StoreBytes ×
	// stores) exceeds it, or whose store is the unbounded "perfect", is
	// refused at handshake. 0 admits every store sig.OpenStore accepts.
	MaxStoreBytes uint64
	// IdleTimeout is the slow-client deadline: a session that neither
	// delivers nor accepts a byte for this long is evicted. Default 30s.
	IdleTimeout time.Duration
	// Registry receives daemon and pipeline telemetry. Default
	// telemetry.Default().
	Registry *telemetry.Registry
	// Ignored: the daemon keeps no timeline (EXPERIMENTS.md decision record).
	// The field stays only because the frozen bench/ harness sets it; it goes
	// with ROADMAP item 1(c).
	SnapshotSamples int
	// Logf, when set, receives one line per session lifecycle event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.WorkerBudget <= 0 {
		c.WorkerBudget = 16
	}
	if c.WorkersPerSession <= 0 {
		c.WorkersPerSession = 4
	}
	if c.SessionSlots <= 0 {
		c.SessionSlots = 1 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.Registry == nil {
		c.Registry = telemetry.Default()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Session states, exposed through /sessions.
const (
	stateHandshake = iota
	stateReceiving
	stateProfiling
	stateResponding
	stateDone
	stateEvicted
)

var stateNames = [...]string{"handshake", "receiving", "profiling", "responding", "done", "evicted"}

// session is one live client connection.
type session struct {
	id       uint64
	remote   string
	proto    string
	conn     net.Conn
	started  time.Time
	workers  atomic.Int32
	state    atomic.Int32
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
	events   atomic.Uint64
}

// SessionInfo is the /sessions JSON row for one live session.
type SessionInfo struct {
	ID         uint64  `json:"id"`
	Remote     string  `json:"remote"`
	Proto      string  `json:"proto"`
	State      string  `json:"state"`
	Workers    int     `json:"workers"`
	BytesIn    uint64  `json:"bytes_in"`
	BytesOut   uint64  `json:"bytes_out"`
	Events     uint64  `json:"events"`
	AgeSeconds float64 `json:"age_seconds"`
}

// Server is the ddprofd daemon: it owns the session table, the global
// worker budget, and the telemetry registry.
type Server struct {
	cfg  Config
	pipe *telemetry.Pipeline

	mu       sync.Mutex
	sessions map[uint64]*session
	// conns holds every admitted connection until its handler returns — a
	// little longer than its session, which leaves the table before the
	// verdict is written — so Shutdown can force-close all of them.
	conns     map[net.Conn]struct{}
	listeners map[net.Listener]struct{}
	nextID    uint64
	budget    int
	draining  bool
	sessWG    sync.WaitGroup

	cAccepted  *telemetry.Counter
	cRefused   *telemetry.Counter
	cEvicted   *telemetry.Counter
	cCompleted *telemetry.Counter
	cBytesIn   *telemetry.Counter
	cBytesOut  *telemetry.Counter
	gActive    *telemetry.Gauge
	gBudget    *telemetry.Gauge
}

// New returns a daemon ready to Serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Registry
	s := &Server{
		cfg:        cfg,
		pipe:       reg.Pipeline("pipeline"),
		sessions:   make(map[uint64]*session),
		conns:      make(map[net.Conn]struct{}),
		listeners:  make(map[net.Listener]struct{}),
		budget:     cfg.WorkerBudget,
		cAccepted:  reg.Counter("server_sessions_accepted_total"),
		cRefused:   reg.Counter("server_sessions_refused_total"),
		cEvicted:   reg.Counter("server_sessions_evicted_total"),
		cCompleted: reg.Counter("server_sessions_completed_total"),
		cBytesIn:   reg.Counter("server_bytes_in_total"),
		cBytesOut:  reg.Counter("server_bytes_out_total"),
		gActive:    reg.Gauge("server_sessions_active"),
		gBudget:    reg.Gauge("server_worker_budget_available"),
	}
	s.gBudget.Set(int64(s.budget))
	return s
}

// Serve accepts sessions on ln until the listener fails or the server
// drains. It blocks; run one goroutine per listener.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: draining")
	}
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// errRefused marks connects rejected before a session started.
var errRefused = errors.New("refused")

// handleConn runs one connection to completion. The verdict is the last
// thing a session does: by the time runSession returns, the pipeline and its
// store are released; the session then leaves the table, and only then is the
// response written — so a client that has its answer never finds its session
// still listed (ActiveSessions, /sessions, server_sessions_active) or its
// counters (completed, evicted) not yet bumped.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	sess, err := s.register(conn)
	if err != nil {
		s.cRefused.Inc()
		// Best-effort error response so the client sees why.
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		writeResponse(conn, statusErr, []byte(err.Error()))
		return
	}
	defer s.sessWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	tc := &timedConn{Conn: conn, idle: s.cfg.IdleTimeout, sess: sess, srv: s}
	payload, err := s.runSession(sess, tc)
	if err != nil {
		sess.state.Store(stateEvicted)
		s.cEvicted.Inc()
		s.unregister(sess)
		s.cfg.Logf("ddprofd: session %d (%s): evicted: %v", sess.id, sess.remote, err)
		conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
		writeResponse(conn, statusErr, []byte(err.Error()))
		return
	}
	sess.state.Store(stateDone)
	s.cCompleted.Inc()
	s.unregister(sess)
	bw := bufio.NewWriterSize(tc, 1<<16)
	err = writeResponse(bw, statusOK, payload)
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		s.cfg.Logf("ddprofd: session %d (%s): completed, response not delivered: %v", sess.id, sess.remote, err)
		return
	}
	s.cfg.Logf("ddprofd: session %d (%s): completed, %d events, %d bytes in, %d bytes out",
		sess.id, sess.remote, sess.events.Load(), sess.bytesIn.Load(), sess.bytesOut.Load())
}

// register admits a connection as a session, or explains why not.
func (s *Server) register(conn net.Conn) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errors.New("ddprofd: draining, not accepting sessions")
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("ddprofd: session limit (%d) reached", s.cfg.MaxSessions)
	}
	s.nextID++
	sess := &session{
		id:      s.nextID,
		remote:  conn.RemoteAddr().String(),
		proto:   conn.RemoteAddr().Network(),
		conn:    conn,
		started: time.Now(),
	}
	s.sessions[sess.id] = sess
	s.conns[conn] = struct{}{}
	s.gActive.Set(int64(len(s.sessions)))
	s.cAccepted.Inc()
	s.sessWG.Add(1)
	return sess, nil
}

func (s *Server) unregister(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.gActive.Set(int64(len(s.sessions)))
	s.mu.Unlock()
}

// resolveBackend picks a session's store spec — the handshake's, else the
// daemon default — and enforces the daemon's store admission budget over the
// session's store count. The charge is what the stores core.New builds for
// this handshake will report: a race-checking session's signatures keep
// stamps, and each of several workers' signatures holds its share of the one
// signature's slots.
func (c Config) resolveBackend(h *handshake, stores, slots int) (string, error) {
	spec := h.Backend
	if spec == "" {
		spec = c.DefaultBackend
	}
	bytes, err := sig.StoreBytes(spec, slots, stores, h.Flags&flagRaceCheck != 0)
	if err != nil {
		return "", err
	}
	if c.MaxStoreBytes > 0 {
		if bytes == 0 {
			return "", fmt.Errorf("backend %q has no memory bound; daemon store budget is %d bytes", spec, c.MaxStoreBytes)
		}
		if total := bytes * uint64(stores); total > c.MaxStoreBytes {
			return "", fmt.Errorf("backend %q needs %d bytes over %d stores; daemon store budget is %d bytes",
				spec, total, stores, c.MaxStoreBytes)
		}
	}
	return spec, nil
}

// acquireWorkers borrows up to want workers from the global budget; a return
// of 0 means "run serial, borrow nothing".
func (s *Server) acquireWorkers(hint int) int {
	want := hint
	if want <= 0 {
		want = s.cfg.WorkersPerSession
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if want > s.budget {
		want = s.budget
	}
	if want < 2 {
		return 0
	}
	s.budget -= want
	s.gBudget.Set(int64(s.budget))
	return want
}

func (s *Server) releaseWorkers(n int) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	s.budget += n
	s.gBudget.Set(int64(s.budget))
	s.mu.Unlock()
}

// timedConn enforces the slow-client deadline on every read and write and
// feeds the per-session and daemon byte counters.
type timedConn struct {
	net.Conn
	idle time.Duration
	sess *session
	srv  *Server
}

func (t *timedConn) Read(p []byte) (int, error) {
	if err := t.Conn.SetReadDeadline(time.Now().Add(t.idle)); err != nil {
		return 0, err
	}
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.sess.bytesIn.Add(uint64(n))
		t.srv.cBytesIn.Add(uint64(n))
	}
	return n, err
}

func (t *timedConn) Write(p []byte) (int, error) {
	if err := t.Conn.SetWriteDeadline(time.Now().Add(t.idle)); err != nil {
		return 0, err
	}
	n, err := t.Conn.Write(p)
	if n > 0 {
		t.sess.bytesOut.Add(uint64(n))
		t.srv.cBytesOut.Add(uint64(n))
	}
	return n, err
}

// runSession executes the protocol over one admitted connection up to, but
// not including, the response: handshake, decode, AccessBatch, Flush, encode.
// It returns the encoded profile for handleConn to send once the session is
// torn down. Any error evicts the session; the pipeline is always flushed so
// no worker goroutine outlives its session.
func (s *Server) runSession(sess *session, tc *timedConn) ([]byte, error) {
	br := bufio.NewReaderSize(tc, 1<<16)

	h, err := readHandshake(br)
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}

	workers := s.acquireWorkers(h.Workers)
	defer s.releaseWorkers(workers)
	sess.workers.Store(int32(max(workers, 1)))

	ccfg := core.Config{
		Meta:           h.Meta,
		RaceCheck:      h.Flags&flagRaceCheck != 0,
		Metrics:        s.pipe,
		SlotsPerWorker: s.cfg.SessionSlots,
	}
	if workers >= 2 {
		ccfg.Mode = core.ModeParallel
		ccfg.Workers = workers
	}
	ccfg.Backend, err = s.cfg.resolveBackend(h, max(workers, 1), ccfg.SlotsPerWorker)
	if err != nil {
		return nil, fmt.Errorf("session store: %w", err)
	}
	prof, err := core.New(ccfg)
	if err != nil {
		// A rejected Config here means the daemon's own limits are broken
		// (handshake values are already clamped); surface it, don't panic.
		return nil, fmt.Errorf("session pipeline: %w", err)
	}
	flushed := false
	var res *core.Result
	flush := func() {
		flushed = true
		res = prof.Flush()
	}
	defer func() {
		if !flushed {
			flush() // join pipeline workers even on eviction
		}
		// The daemon lives through thousands of sessions: hand the merged
		// set's slab pages back to the shared pool so the next session's
		// workers fill recycled pages instead of re-growing from zero. The
		// response bytes (if any) were already encoded out of the set.
		if res != nil && res.Deps != nil {
			res.Deps.Release()
		}
	}()

	sess.state.Store(stateReceiving)
	// The decode goroutine batch-decodes frames into chunks and this
	// goroutine feeds them to the pipeline's bulk seam, overlapping decode
	// and profiling. The decoder closes out as it exits, so draining it is
	// the join.
	ing := startIngest(br)
	for ib := range ing.out {
		prof.AccessBatch(ib.c.Events, ib.c.Ranges)
		sess.events.Add(ib.events)
		ing.free <- ib.c
	}
	s.pipe.TraceSiteDefines.Add(ing.defines)
	s.pipe.TraceSiteRedefines.Add(ing.redefines)
	if err := ing.err(); err != nil {
		return nil, fmt.Errorf("trace stream: %w", err)
	}

	sess.state.Store(stateProfiling)
	flush()

	sess.state.Store(stateResponding)
	tab := loc.NewTable()
	for _, n := range h.VarNames {
		tab.Var(n)
	}
	var buf bytes.Buffer
	if err := dep.Encode(&buf, res.Deps, tab, nil); err != nil {
		return nil, fmt.Errorf("encoding profile: %w", err)
	}
	return buf.Bytes(), nil
}

// Sessions snapshots the live session table, ordered by ID.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SessionInfo, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, SessionInfo{
			ID:         sess.id,
			Remote:     sess.remote,
			Proto:      sess.proto,
			State:      stateNames[sess.state.Load()],
			Workers:    int(sess.workers.Load()),
			BytesIn:    sess.bytesIn.Load(),
			BytesOut:   sess.bytesOut.Load(),
			Events:     sess.events.Load(),
			AgeSeconds: time.Since(sess.started).Seconds(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ActiveSessions returns the number of live sessions.
func (s *Server) ActiveSessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// HTTPHandler serves the observability endpoints:
//
//	/metrics      — plain-text metric exposition (telemetry.Registry.WriteText)
//	/sessions     — JSON array of live sessions
//	/debug/pprof/ — the standard Go runtime profiles and execution trace
func (s *Server) HTTPHandler() http.Handler {
	mux := telemetry.DebugMux(s.cfg.Registry)
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Sessions())
	})
	return mux
}

// Shutdown drains the daemon: listeners close immediately (new connects are
// refused), in-flight sessions run to completion, and when ctx expires the
// remaining connections are force-closed. It returns nil if every session
// finished in time, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	lns := make([]net.Listener, 0, len(s.listeners))
	for ln := range s.listeners {
		lns = append(lns, ln)
	}
	s.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.sessWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close() // unblocks session reads/writes
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
