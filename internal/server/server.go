package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
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
	// SessionSlots is the total signature slot budget per session, split
	// over that session's workers. Default 2^20.
	SessionSlots int
	// DefaultBackend is the store spec of sessions that request none
	// (resolved against the sig backend registry); empty selects the
	// default signature sized from SessionSlots. A handshake backend spec
	// overrides it.
	DefaultBackend string
	// MaxStoreBytes, when positive, is the daemon's per-session store
	// admission budget: a session whose backend's estimated footprint
	// (per-store bound × stores) exceeds it — or whose backend is
	// unbounded, like "perfect" or "shadow" — is refused at handshake.
	// 0 admits everything.
	MaxStoreBytes uint64
	// QueueCap is the per-worker queue capacity in chunks; small values make
	// pipeline backpressure reach the socket sooner. Default: core's.
	QueueCap int
	// IdleTimeout is the slow-client deadline: a session that neither
	// delivers nor accepts a byte for this long is evicted. Default 30s.
	IdleTimeout time.Duration
	// Registry receives daemon and pipeline telemetry. Default
	// telemetry.Default().
	Registry *telemetry.Registry
	// SnapshotInterval is the flight recorder's sampling period: how often
	// every Registry metric is copied into the timeline ring served at
	// /debug/timeline. Default 250ms.
	SnapshotInterval time.Duration
	// SnapshotSamples is the timeline ring size (most recent samples kept).
	// Default 1024; negative disables the background snapshotter entirely.
	SnapshotSamples int
	// EpochInterval is the live observatory's epoch clock: an ingesting
	// session cuts an epoch, and streams the delta to its watch subscribers,
	// at the first batch boundary at least this long after its previous
	// interval cut. 0 disables interval cuts; explicit EpochMark records in
	// the trace stream cut epochs regardless.
	EpochInterval time.Duration
	// SessionSeriesMax caps the per-session labeled series on /metrics
	// (server_session_events_total{session="..."}). Sessions beyond the cap
	// account to the shared session="overflow" series; a session's own series
	// is evicted from the registry when it closes. Default 64.
	SessionSeriesMax int
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
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 250 * time.Millisecond
	}
	if c.SnapshotSamples == 0 {
		c.SnapshotSamples = 1024
	}
	if c.SessionSeriesMax <= 0 {
		c.SessionSeriesMax = 64
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
	snap *telemetry.Snapshotter

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
	// sessSeries counts live per-session labeled metric series, enforcing
	// Config.SessionSeriesMax (guarded by mu like the session table).
	sessSeries int

	// The observatory table: one per profiling session, kept past completion
	// for queries (obsDone is the FIFO retention order). obsWaiters are watch
	// subscriptions for "the next session" (WatchSession 0 with none active).
	obsMu      sync.Mutex
	obs        map[uint64]*observatory
	obsDone    []uint64
	obsWaiters []chan *observatory

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
		obs:        make(map[uint64]*observatory),
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
	if cfg.SnapshotSamples > 0 {
		s.snap = telemetry.NewSnapshotter(reg, cfg.SnapshotInterval, cfg.SnapshotSamples)
		s.snap.Start()
	}
	return s
}

// Snapshotter returns the daemon's flight recorder, or nil when disabled
// (Config.SnapshotSamples < 0).
func (s *Server) Snapshotter() *telemetry.Snapshotter { return s.snap }

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
// thing a session does: by the time runSession returns, the pipeline, its
// store and the session's metric series are released; the session then leaves
// the table, and only then is the response written — so a client that has
// its answer never finds its session still listed (ActiveSessions, /sessions,
// server_sessions_active) or its counters (completed, evicted) not yet bumped.
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
	if payload != nil { // a watch subscription has streamed its answer already
		bw := bufio.NewWriterSize(tc, 1<<16)
		err = writeResponse(bw, statusOK, payload)
		if err == nil {
			err = bw.Flush()
		}
		if err != nil {
			s.cfg.Logf("ddprofd: session %d (%s): completed, response not delivered: %v", sess.id, sess.remote, err)
			return
		}
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
// stamps, and each of several workers' signatures holds its share of the
// slots.
func (c Config) resolveBackend(h *handshake, stores, slotsPerStore int) (string, error) {
	spec := h.Backend
	if spec == "" {
		spec = c.DefaultBackend
	}
	bytes, bounded, err := sig.EstimateStoreBytes(spec, slotsPerStore, stores, h.Flags&flagRaceCheck != 0)
	if err != nil {
		return "", err
	}
	if c.MaxStoreBytes > 0 {
		if !bounded {
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

// attachObservatory registers a new session's observatory and hands it to
// every watch subscription waiting for "the next session".
func (s *Server) attachObservatory(id uint64, workers int, varNames []string) *observatory {
	o := newObservatory(id, workers, varNames)
	s.obsMu.Lock()
	s.obs[id] = o
	waiters := s.obsWaiters
	s.obsWaiters = nil
	s.obsMu.Unlock()
	for _, w := range waiters {
		w <- o // buffered, never blocks
	}
	return o
}

// retireObservatory moves a finished session's observatory into the retained
// ring (ok) or drops it (session evicted), releasing whatever falls out.
func (s *Server) retireObservatory(o *observatory, ok bool) {
	var victim *observatory
	s.obsMu.Lock()
	if !ok {
		victim = o
		delete(s.obs, o.sessionID)
	} else {
		s.obsDone = append(s.obsDone, o.sessionID)
		if len(s.obsDone) > obsRetained {
			vid := s.obsDone[0]
			s.obsDone = s.obsDone[1:]
			victim = s.obs[vid]
			delete(s.obs, vid)
		}
	}
	s.obsMu.Unlock()
	if victim != nil {
		victim.release()
	}
}

// observatoryByID returns the observatory of a live or retained session.
func (s *Server) observatoryByID(id uint64) *observatory {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return s.obs[id]
}

// findObservatory resolves a watch target: a session by ID (live or
// retained), or — for ID 0 — the newest active session, waiting up to wait
// for one to start when none is.
func (s *Server) findObservatory(id uint64, wait time.Duration) (*observatory, error) {
	if id != 0 {
		if o := s.observatoryByID(id); o != nil {
			return o, nil
		}
		return nil, fmt.Errorf("ddprofd: no session %d (live or retained)", id)
	}
	s.obsMu.Lock()
	var best *observatory
	for _, o := range s.obs {
		if o.active() && (best == nil || o.sessionID > best.sessionID) {
			best = o
		}
	}
	if best != nil {
		s.obsMu.Unlock()
		return best, nil
	}
	ch := make(chan *observatory, 1)
	s.obsWaiters = append(s.obsWaiters, ch)
	s.obsMu.Unlock()
	select {
	case o := <-ch:
		return o, nil
	case <-time.After(wait):
		s.obsMu.Lock()
		for i, w := range s.obsWaiters {
			if w == ch {
				s.obsWaiters = append(s.obsWaiters[:i], s.obsWaiters[i+1:]...)
				break
			}
		}
		s.obsMu.Unlock()
		select {
		case o := <-ch: // attach raced the timeout; take it
			return o, nil
		default:
		}
		return nil, errors.New("ddprofd: no active session to watch")
	}
}

// sessionSeries is one session's labeled telemetry: the events counter and
// the decoded batch-size histogram. They appear on /metrics (and therefore in
// the flight-recorder timeline, which snapshots every registry metric).
type sessionSeries struct {
	events  *telemetry.Counter
	batch   *telemetry.Histogram
	release func()
}

// sessionSeries returns a session's labeled series bundle and arranges its
// release. Cardinality on /metrics is bounded: one series slot covers all of
// a session's instruments, at most SessionSeriesMax slots exist at once,
// sessions past the cap share the session="overflow" series, and a session's
// own series are removed from the registry when it closes.
func (s *Server) sessionSeries(id uint64) *sessionSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	label := "overflow"
	overflow := s.sessSeries >= s.cfg.SessionSeriesMax
	if !overflow {
		s.sessSeries++
		label = strconv.FormatUint(id, 10)
	}
	names := [2]string{
		fmt.Sprintf("server_session_events_total{session=%q}", label),
		fmt.Sprintf("server_session_batch_events{session=%q}", label),
	}
	ss := &sessionSeries{
		events:  s.cfg.Registry.Counter(names[0]),
		batch:   s.cfg.Registry.Histogram(names[1]),
		release: func() {},
	}
	if !overflow {
		var once sync.Once
		ss.release = func() {
			once.Do(func() {
				s.cfg.Registry.Remove(names[0], names[1])
				s.mu.Lock()
				s.sessSeries--
				s.mu.Unlock()
			})
		}
	}
	return ss
}

// timedConn enforces the slow-client deadline on every read and write and
// feeds the per-session and daemon byte counters.
type timedConn struct {
	net.Conn
	idle     time.Duration
	sess     *session
	srv      *Server
	stopping atomic.Bool // set by stop: reads fail from then on
}

// errStopped is what a read returns once its session has stopped ingest.
var errStopped = errors.New("session stopped")

func (t *timedConn) Read(p []byte) (int, error) {
	if err := t.Conn.SetReadDeadline(time.Now().Add(t.idle)); err != nil {
		return 0, err
	}
	// Checked after re-arming: a stop that lands after this check moves the
	// deadline to the past after the re-arm, so the read below fails at once.
	if t.stopping.Load() {
		return 0, errStopped
	}
	n, err := t.Conn.Read(p)
	if n > 0 {
		t.sess.bytesIn.Add(uint64(n))
		t.srv.cBytesIn.Add(uint64(n))
	}
	return n, err
}

// stop kicks a blocked read off its wait and fails every later one, so the
// session's decoder exits at once whatever it was reading.
func (t *timedConn) stop() {
	t.stopping.Store(true)
	t.Conn.SetReadDeadline(time.Now())
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
// not including, the response: it returns the encoded profile for handleConn
// to send once the session is torn down (nil for a watch subscription, which
// streams its own answer). Any error evicts the session; the pipeline is
// always flushed so no worker goroutine outlives its session.
func (s *Server) runSession(sess *session, tc *timedConn) ([]byte, error) {
	br := bufio.NewReaderSize(tc, 1<<16)

	h, err := readHandshake(br)
	if err != nil {
		return nil, fmt.Errorf("handshake: %w", err)
	}
	if h.Watch {
		return nil, s.runWatch(sess, h, tc)
	}

	workers := s.acquireWorkers(h.Workers)
	defer s.releaseWorkers(workers)
	sess.workers.Store(int32(max(workers, 1)))

	// The live observatory: workers deliver epoch-delta extractions here,
	// watch subscribers and the HTTP query endpoints read from it. Having a
	// delta sink makes the engines keep the per-variable bounds the
	// address-range provenance query reads.
	obs := s.attachObservatory(sess.id, max(workers, 1), h.VarNames)
	obsOK := false
	defer func() {
		if !obsOK {
			obs.abort()
		}
		s.retireObservatory(obs, obsOK)
	}()
	series := s.sessionSeries(sess.id)
	defer series.release()

	ccfg := core.Config{
		Meta:         h.Meta,
		RaceCheck:    h.Flags&flagRaceCheck != 0,
		Metrics:      s.pipe,
		QueueCap:     max(s.cfg.QueueCap, 0), // 0: core's default
		OnEpochDelta: obs.offer,
	}
	if workers >= 2 {
		ccfg.Mode = core.ModeParallel
		ccfg.Workers = workers
		ccfg.SlotsPerWorker = s.cfg.SessionSlots / workers
	} else {
		ccfg.Mode = core.ModeSerial
		ccfg.SlotsPerWorker = s.cfg.SessionSlots
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
	flush := func() *core.Result {
		flushed = true
		res = prof.Flush()
		return res
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
	// goroutine feeds validated batches to the pipeline's bulk seam,
	// overlapping decode and profiling. Epoch marks come from two sources —
	// explicit EpochMark records and the interval clock — and both advance
	// one monotone counter, so frame epochs are ordered however the two
	// interleave. Both are cut here, on the Access-calling goroutine between
	// records, as the sequential-target producer requires: the decoder
	// carries explicit marks as chunk slots and feedBatch splits batches
	// around them; an interval cut lands at the next batch boundary.
	var epoch uint32
	lastCut := time.Now()
	ing := startIngest(tc, br)
	defer ing.stop()
	for ib := range ing.out {
		if s.cfg.EpochInterval > 0 && time.Since(lastCut) >= s.cfg.EpochInterval {
			lastCut = time.Now()
			epoch++
			prof.EpochMark(epoch)
		}
		n, err := feedBatch(prof, ib, &epoch)
		sess.events.Add(n)
		series.events.Add(n)
		series.batch.Observe(int64(len(ib.c.Events)))
		ing.free <- ib.c
		if err != nil {
			return nil, err
		}
	}
	s.pipe.TraceSiteDefines.Add(ing.defines)
	s.pipe.TraceSiteRedefines.Add(ing.redefines)
	if err := ing.err(); err != nil {
		return nil, fmt.Errorf("trace stream: %w", err)
	}

	sess.state.Store(stateProfiling)
	// Cut one last epoch at end-of-stream so every worker ships its tail —
	// and its bounds snapshot — before the merge; the post-merge remainder
	// below is then normally empty, but extracting it keeps the "union of
	// deltas equals the final profile" guarantee unconditional.
	epoch++
	prof.EpochMark(epoch)
	res = flush()
	fin := &core.EpochDelta{Epoch: epoch + 1, Deps: dep.NewSet()}
	res.Deps.ExtractDelta(fin.Deps)
	for id, ks := range res.Carried {
		out := dep.NewSet()
		if ks.ExtractDelta(out) == 0 {
			out.Release()
			continue
		}
		if fin.Loops == nil {
			fin.Loops = make(map[prog.LoopID]*dep.Set)
		}
		fin.Loops[id] = out
	}
	obs.finish(fin)
	obsOK = true

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

// feedBatch validates one decoded batch and feeds it to the pipeline's bulk
// seam, splitting at EpochMark slots so explicit epoch cuts land at exactly
// their record position. It returns the number of target events fed (ranges
// weighted by element count). Pipeline control kinds beyond Remove are
// daemon-internal; a stream carrying them is corrupt (a Flush would end a
// worker under its producer).
func feedBatch(prof core.Profiler, b ingestBatch, epoch *uint32) (uint64, error) {
	evs, rngs := b.c.Events, b.c.Ranges
	if !b.ctl {
		// Pure data batch: no epoch marks to cut, no control kinds to
		// reject, and the decoder already counted the events.
		prof.AccessBatch(evs, rngs)
		return b.events, nil
	}
	var events, weight uint64
	seg := 0
	for i := range evs {
		a := &evs[i]
		switch {
		case a.Kind == event.RangeRef:
			n := uint64(rngs[a.Addr].Count)
			events += n
			weight += n
		case a.Kind == event.EpochMark:
			if i > seg {
				prof.AccessBatch(evs[seg:i], rngs)
			}
			seg = i + 1
			weight++
			*epoch++
			prof.EpochMark(*epoch)
		case a.Kind > event.Remove:
			if i > seg {
				prof.AccessBatch(evs[seg:i], rngs)
			}
			return events, fmt.Errorf("trace stream: event %d: control kind %v not allowed", b.base+weight, a.Kind)
		default:
			// A collapsed read slot stands for 1+Rep wire records.
			events += 1 + uint64(a.Rep)
			weight += 1 + uint64(a.Rep)
		}
	}
	if seg < len(evs) {
		prof.AccessBatch(evs[seg:], rngs)
	}
	return events, nil
}

// runWatch serves a watch subscription: it resolves the target session's
// observatory, replies with a bare statusOK byte, then streams epoch-delta
// frames until the session's final frame (or death). Each frame is flushed
// to the socket as it is cut, so subscribers see deltas while the session is
// still ingesting. A subscriber that cannot keep up is evicted rather than
// allowed to backpressure the profiling session.
func (s *Server) runWatch(sess *session, h *handshake, tc *timedConn) error {
	sess.workers.Store(0)
	if h.WatchSince > uint64(^uint32(0)) {
		return fmt.Errorf("watch: epoch %d overflows uint32", h.WatchSince)
	}
	o, err := s.findObservatory(h.WatchSession, s.cfg.IdleTimeout)
	if err != nil {
		return err
	}
	catch, sub, done := o.subscribe(uint32(h.WatchSince))
	defer o.unsubscribe(sub)

	sess.state.Store(stateResponding)
	bw := bufio.NewWriterSize(tc, 1<<16)
	if _, err := bw.Write([]byte{statusOK}); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	dw := trace.NewDeltaWriter(bw)
	send := func(f obsFrame) error {
		err := dw.WriteFrame(f.DeltaFrame)
		// The frame's payload bytes are out of the pooled buffer once the
		// delta writer has copied them; release this subscriber's reference
		// whether or not the write stuck.
		f.pay.release()
		if err != nil {
			return fmt.Errorf("watch: writing frame: %w", err)
		}
		sess.events.Add(1)
		return bw.Flush()
	}
	sawFinal := false
	if catch != nil {
		if err := send(*catch); err != nil {
			return err
		}
		sawFinal = catch.Final
	}
	if !done {
		for f := range sub.ch {
			if err := send(f); err != nil {
				return err
			}
			if f.Final {
				sawFinal = true
			}
		}
	}
	if !sawFinal && !o.isAborted() {
		// The stream closed without a final frame while the session lives on
		// (or finished past us): this subscriber fell behind and was evicted
		// from the fan-out.
		return errors.New("watch: subscriber fell behind, evicted")
	}
	// An aborted session ends the stream with a clean terminator but no
	// frame marked final; the client knows no exact profile exists.
	if err := dw.Close(); err != nil {
		return fmt.Errorf("watch: %w", err)
	}
	return bw.Flush()
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
//	/metrics        — plain-text metric exposition (telemetry.Registry.WriteText)
//	/sessions       — JSON array of live sessions
//	/debug/timeline — JSON time series of all metrics (flight-recorder ring)
//	/debug/pprof/   — the standard Go runtime profiles
//
// and the live observatory's provenance query API, answered from the
// session's observatory (live or retained) without pausing ingest:
//
//	GET  /sessions/{id}/deps?since=E        — dependences first observed at
//	                                          epoch E or later (0 = all)
//	GET  /sessions/{id}/loop/{L}/carried    — what loop L carries right now
//	GET  /sessions/{id}/addr?lo=&hi=        — dependences on variables whose
//	                                          observed address interval
//	                                          intersects [lo, hi]
//	POST /sessions/{id}/diff                — merge-join a stored DDP1
//	                                          baseline (request body) against
//	                                          the live profile
func (s *Server) HTTPHandler() http.Handler {
	mux := telemetry.DebugMux(s.cfg.Registry, s.snap)
	mux.HandleFunc("/sessions", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Sessions())
	})
	mux.HandleFunc("GET /sessions/{id}/deps", func(w http.ResponseWriter, r *http.Request) {
		o := s.obsForRequest(w, r)
		if o == nil {
			return
		}
		since, err := queryUint(r, "since", 0)
		if err != nil || since > uint64(^uint32(0)) {
			http.Error(w, "bad since= epoch", http.StatusBadRequest)
			return
		}
		writeJSON(w, o.depsSince(uint32(since)))
	})
	mux.HandleFunc("GET /sessions/{id}/loop/{loop}/carried", func(w http.ResponseWriter, r *http.Request) {
		o := s.obsForRequest(w, r)
		if o == nil {
			return
		}
		l, err := strconv.ParseUint(r.PathValue("loop"), 10, 16)
		if err != nil {
			http.Error(w, "bad loop id", http.StatusBadRequest)
			return
		}
		writeJSON(w, o.loopCarried(prog.LoopID(l)))
	})
	mux.HandleFunc("GET /sessions/{id}/addr", func(w http.ResponseWriter, r *http.Request) {
		o := s.obsForRequest(w, r)
		if o == nil {
			return
		}
		lo, err1 := queryUint(r, "lo", 0)
		hi, err2 := queryUint(r, "hi", ^uint64(0))
		if err1 != nil || err2 != nil || lo > hi {
			http.Error(w, "bad lo=/hi= address bounds", http.StatusBadRequest)
			return
		}
		writeJSON(w, o.addrQuery(lo, hi))
	})
	mux.HandleFunc("POST /sessions/{id}/diff", func(w http.ResponseWriter, r *http.Request) {
		o := s.obsForRequest(w, r)
		if o == nil {
			return
		}
		baseline, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRespPayload))
		if err != nil {
			http.Error(w, "reading baseline: "+err.Error(), http.StatusBadRequest)
			return
		}
		page, err := o.diffAgainst(baseline)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, page)
	})
	return mux
}

// obsForRequest resolves the {id} path value to a live or retained
// observatory, writing the HTTP error itself when it can't.
func (s *Server) obsForRequest(w http.ResponseWriter, r *http.Request) *observatory {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		http.Error(w, "bad session id", http.StatusBadRequest)
		return nil
	}
	o := s.observatoryByID(id)
	if o == nil {
		http.Error(w, fmt.Sprintf("no session %d (live or retained)", id), http.StatusNotFound)
		return nil
	}
	return o
}

// queryUint parses an optional unsigned query parameter (base 10 or 0x hex).
func queryUint(r *http.Request, name string, def uint64) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.ParseUint(v, 0, 64)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Shutdown drains the daemon: listeners close immediately (new connects are
// refused), in-flight sessions run to completion, and when ctx expires the
// remaining connections are force-closed. It returns nil if every session
// finished in time, ctx.Err() otherwise.
func (s *Server) Shutdown(ctx context.Context) error {
	// The flight recorder stops only after the drain below: its final sample
	// must capture the fully drained end state (completed-session counters,
	// zero active sessions), not the state at the moment shutdown began.
	stopSnap := func() {
		if s.snap != nil {
			s.snap.Stop()
		}
	}
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
		stopSnap()
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close() // unblocks session reads/writes
		}
		s.mu.Unlock()
		<-done
		stopSnap()
		return ctx.Err()
	}
}
