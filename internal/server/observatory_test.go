package server

// Coverage for the live session observatory: the epoch-delta watch stream,
// the provenance query endpoints, the live diff, and the per-session metric
// series lifecycle.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ddprof/internal/core"
	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/telemetry"
	"ddprof/internal/trace"
)

// obsTarget hand-builds a profiling target as raw event batches: one loop
// whose iterations write a[i] and read a[i-1] — a carried RAW at distance 1
// plus a carried WAW at the window size — so every batch advances dependence
// aggregates and the loop-carried table.
func obsTarget(batches, perBatch int) (*prog.Meta, []string, [][]event.Access) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "carried"})
	ctx := m.PushCtx(0, l)
	names := []string{"x", "a"}
	var out [][]event.Access
	it := uint32(0)
	for b := 0; b < batches; b++ {
		var evs []event.Access
		for n := 0; n < perBatch; n++ {
			iv := event.PackIterVec([]uint32{it})
			addr := 0x1000 + uint64(it%64)*8
			if it > 0 {
				prev := 0x1000 + uint64((it-1)%64)*8
				evs = append(evs, event.Access{Addr: prev, Kind: event.Read, Loc: loc.Pack(1, 12), Var: 2, CtxID: ctx, IterVec: iv})
			}
			evs = append(evs, event.Access{Addr: addr, Kind: event.Write, Loc: loc.Pack(1, 11), Var: 2, CtxID: ctx, IterVec: iv})
			it++
		}
		out = append(out, evs)
	}
	return m, names, out
}

// obsWire renders a complete session byte stream — handshake, framed trace
// with an explicit EpochMark record after every batch, terminator — ready to
// write to a daemon connection.
func obsWire(t *testing.T, h *handshake, batches [][]event.Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeHandshake(&buf, h); err != nil {
		t.Fatal(err)
	}
	fw := trace.NewFrameWriter(&buf)
	tw, err := trace.NewWriter(fw)
	if err != nil {
		t.Fatal(err)
	}
	for i, evs := range batches {
		for _, a := range evs {
			tw.Access(a)
		}
		tw.Access(event.Access{Addr: uint64(i + 1), Kind: event.EpochMark})
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runObsSession streams wire to the daemon and returns the session's response
// profile payload.
func runObsSession(t *testing.T, addr string, wire []byte) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	status, payload, err := readResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if status != statusOK {
		t.Fatalf("session failed: %s", payload)
	}
	return payload
}

// TestWatchE2E is the acceptance scenario on the wire: a subscriber attaches
// before the session starts (session 0 = wait for the next one), receives at
// least one non-empty epoch-delta frame before the final frame, and folding
// every frame yields the session's exact final profile, byte-identical under
// DDP1.
func TestWatchE2E(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry(), IdleTimeout: 10 * time.Second})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	meta, names, batches := obsTarget(4, 200)
	h := &handshake{Backend: "perfect", Workers: 2, VarNames: names, Meta: meta}
	wire := obsWire(t, h, batches)

	type watchOut struct {
		frames []trace.DeltaFrame
		err    error
	}
	watched := make(chan watchOut, 1)
	go func() {
		conn, err := Dial(addr)
		if err != nil {
			watched <- watchOut{err: err}
			return
		}
		defer conn.Close()
		var out watchOut
		out.err = Watch(conn, WatchOptions{Session: 0, Timeout: 10 * time.Second}, func(f trace.DeltaFrame) error {
			out.frames = append(out.frames, f)
			return nil
		})
		watched <- out
	}()

	// The subscriber must be parked in the waiter list before the session
	// starts, or it would race the session's observatory registration.
	waitFor(t, func() bool {
		srv.obsMu.Lock()
		defer srv.obsMu.Unlock()
		return len(srv.obsWaiters) == 1
	})

	finalProfile := runObsSession(t, addr, wire)
	out := <-watched
	if out.err != nil {
		t.Fatalf("watch: %v", out.err)
	}

	nonEmptyBeforeFinal := 0
	sawFinal := false
	folded := dep.NewSet()
	for _, f := range out.frames {
		if sawFinal {
			t.Fatal("frame after the final frame")
		}
		if f.Final {
			sawFinal = true
		} else if len(f.Payload) > 0 {
			nonEmptyBeforeFinal++
		}
		if len(f.Payload) > 0 {
			if _, _, err := dep.DecodeMerge(bytes.NewReader(f.Payload), folded); err != nil {
				t.Fatalf("epoch %d frame: %v", f.Epoch, err)
			}
		}
	}
	if !sawFinal {
		t.Fatal("no final frame")
	}
	if nonEmptyBeforeFinal == 0 {
		t.Fatal("no non-empty epoch-delta frame before the final frame")
	}

	tab := loc.NewTable()
	for _, n := range names {
		tab.Var(n)
	}
	var got bytes.Buffer
	if err := dep.Encode(&got, folded, tab, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), finalProfile) {
		t.Fatalf("folded frames encode to %d bytes, session profile is %d bytes — not byte-identical",
			got.Len(), len(finalProfile))
	}
}

// TestWatchCompletedSession: a subscriber attaching after the session ended
// receives one catch-up frame, already marked final, holding the full
// profile.
func TestWatchCompletedSession(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	meta, names, batches := obsTarget(2, 100)
	finalProfile := runObsSession(t, addr, obsWire(t, &handshake{Backend: "perfect", VarNames: names, Meta: meta}, batches))

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frames []trace.DeltaFrame
	err = Watch(conn, WatchOptions{Session: 1, Timeout: 5 * time.Second}, func(f trace.DeltaFrame) error {
		frames = append(frames, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1 || !frames[0].Final {
		t.Fatalf("got %d frames (final %v), want one final catch-up", len(frames), len(frames) > 0 && frames[0].Final)
	}
	if !bytes.Equal(frames[0].Payload, finalProfile) {
		t.Fatal("catch-up payload differs from the session's final profile")
	}
}

// TestWatchRefusals: unknown sessions are refused with an explanatory error,
// and a watcher of a session that dies mid-stream learns no final profile
// exists.
func TestWatchRefusals(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry(), IdleTimeout: 5 * time.Second})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	conn, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	err = Watch(conn, WatchOptions{Session: 999, Timeout: 5 * time.Second}, func(trace.DeltaFrame) error { return nil })
	conn.Close()
	if err == nil || !strings.Contains(err.Error(), "no session 999") {
		t.Fatalf("unknown session: err = %v, want refusal naming the session", err)
	}

	// Park a watcher, then feed the next session a corrupt stream.
	watched := make(chan error, 1)
	go func() {
		wc, err := Dial(addr)
		if err != nil {
			watched <- err
			return
		}
		defer wc.Close()
		watched <- Watch(wc, WatchOptions{Session: 0, Timeout: 5 * time.Second}, func(trace.DeltaFrame) error { return nil })
	}()
	waitFor(t, func() bool {
		srv.obsMu.Lock()
		defer srv.obsMu.Unlock()
		return len(srv.obsWaiters) == 1
	})
	bad, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(bad)
	writeHandshake(bw, &handshake{})
	bw.Write([]byte{8, 'X', 'X', 'X', 'X', 0xff, 0xff, 0xff, 0xff, 0})
	bw.Flush()
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	readResponse(bufio.NewReader(bad)) // wait for the eviction verdict
	bad.Close()

	err = <-watched
	if err == nil || !strings.Contains(err.Error(), "without a final frame") {
		t.Fatalf("aborted session watch: err = %v, want missing-final-frame error", err)
	}
}

// TestQueryEndpointsDuringIngest hammers every provenance endpoint while a
// session is streaming — the race-detector coverage for the RLock query
// paths, and the guarantee that queries answer without pausing ingest.
func TestQueryEndpointsDuringIngest(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry(), IdleTimeout: 10 * time.Second})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	meta, names, batches := obsTarget(40, 100)
	wire := obsWire(t, &handshake{Backend: "perfect", Workers: 2, VarNames: names, Meta: meta}, batches)

	// Stream the session in small timed chunks so ingest and queries overlap.
	sessionDone := make(chan []byte, 1)
	var ingesting atomic.Bool
	ingesting.Store(true)
	go func() {
		defer ingesting.Store(false)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Error(err)
			sessionDone <- nil
			return
		}
		defer conn.Close()
		for off := 0; off < len(wire); off += 1024 {
			end := min(off+1024, len(wire))
			if _, err := conn.Write(wire[off:end]); err != nil {
				t.Error(err)
				sessionDone <- nil
				return
			}
			time.Sleep(time.Millisecond)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		status, payload, err := readResponse(bufio.NewReader(conn))
		if err != nil || status != statusOK {
			t.Errorf("session: status %d, err %v", status, err)
			sessionDone <- nil
			return
		}
		sessionDone <- payload
	}()

	handler := srv.HTTPHandler()
	get := func(url string) (int, []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Code, rec.Body.Bytes()
	}

	var wg sync.WaitGroup
	queried := uint64(0)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ingesting.Load() {
				if code, _ := get("/sessions/1/deps"); code != 200 && code != 404 {
					t.Errorf("/deps status %d", code)
					return
				}
				if code, _ := get("/sessions/1/deps?since=2"); code != 200 && code != 404 {
					t.Errorf("/deps?since status %d", code)
					return
				}
				if code, _ := get("/sessions/1/loop/0/carried"); code != 200 && code != 404 {
					t.Errorf("/loop status %d", code)
					return
				}
				if code, _ := get("/sessions/1/addr?lo=0x1000&hi=0x11ff"); code != 200 && code != 404 {
					t.Errorf("/addr status %d", code)
					return
				}
				atomic.AddUint64(&queried, 1)
			}
		}()
	}
	wg.Wait()
	finalProfile := <-sessionDone
	if finalProfile == nil {
		t.Fatal("session failed")
	}
	if atomic.LoadUint64(&queried) == 0 {
		t.Fatal("no queries overlapped the session")
	}

	// Post-session, the retained observatory answers with the exact final
	// numbers: a carried RAW on var "a", the full address window, loop 0
	// carrying it.
	code, body := get("/sessions/1/deps")
	if code != 200 {
		t.Fatalf("/deps after session: status %d", code)
	}
	var page struct {
		Final  bool `json:"final"`
		Unique int  `json:"unique"`
		Deps   []struct {
			Type    string `json:"type"`
			Var     string `json:"var"`
			Carried bool   `json:"carried"`
			Count   uint64 `json:"count"`
		} `json:"deps"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if !page.Final || page.Unique == 0 || len(page.Deps) != page.Unique {
		t.Fatalf("final deps page: final %v, unique %d, rows %d", page.Final, page.Unique, len(page.Deps))
	}
	carriedRAW := false
	for _, d := range page.Deps {
		if d.Type == "RAW" && d.Var == "a" && d.Carried && d.Count > 0 {
			carriedRAW = true
		}
	}
	if !carriedRAW {
		t.Fatal("final deps page lost the carried RAW on var a")
	}

	code, body = get("/sessions/1/loop/0/carried")
	if code != 200 {
		t.Fatalf("/loop/0/carried: status %d", code)
	}
	var loopPg struct {
		Carried []struct {
			Type string `json:"type"`
		} `json:"carried"`
	}
	if err := json.Unmarshal(body, &loopPg); err != nil {
		t.Fatal(err)
	}
	if len(loopPg.Carried) == 0 {
		t.Fatal("loop 0 carries nothing, want the carried RAW/WAW keys")
	}

	code, body = get("/sessions/1/addr?lo=0x1000&hi=0x11ff")
	if code != 200 {
		t.Fatalf("/addr: status %d", code)
	}
	var addrPg struct {
		Vars []struct {
			Var string `json:"var"`
			Lo  uint64 `json:"lo"`
			Hi  uint64 `json:"hi"`
		} `json:"vars"`
		Deps []struct{} `json:"deps"`
	}
	if err := json.Unmarshal(body, &addrPg); err != nil {
		t.Fatal(err)
	}
	if len(addrPg.Vars) != 1 || addrPg.Vars[0].Var != "a" || addrPg.Vars[0].Lo != 0x1000 || addrPg.Vars[0].Hi != 0x1000+63*8 {
		t.Fatalf("addr vars = %+v, want a:[0x1000, %#x]", addrPg.Vars, 0x1000+63*8)
	}
	if len(addrPg.Deps) == 0 {
		t.Fatal("addr window hit no dependences")
	}
	if code, _ := get("/sessions/1/addr?lo=0x5000&hi=0x5fff"); code != 200 {
		t.Fatalf("empty addr window: status %d", code)
	}
	if code, _ := get("/sessions/1/addr?lo=9&hi=5"); code != 400 {
		t.Fatalf("inverted addr window: status %d, want 400", code)
	}

	// since-filtering: everything was first observed by epoch 1 here except
	// nothing — a since past the last epoch returns zero rows.
	code, body = get("/sessions/1/deps?since=4000000000")
	if code != 200 {
		t.Fatalf("/deps?since=huge: status %d", code)
	}
	var lateDeps struct {
		Deps []struct{} `json:"deps"`
	}
	if err := json.Unmarshal(body, &lateDeps); err != nil {
		t.Fatal(err)
	}
	if len(lateDeps.Deps) != 0 {
		t.Fatalf("deps first observed after the last epoch: %d, want 0", len(lateDeps.Deps))
	}
}

// TestDiffEndpoint: POST /sessions/{id}/diff merge-joins an uploaded DDP1
// baseline against the live profile — identical for the session's own
// profile, and asymmetric for a different target's.
func TestDiffEndpoint(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	ln := listenTCP(t)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	addr := ln.Addr().String()

	meta, names, batches := obsTarget(2, 150)
	profile := runObsSession(t, addr, obsWire(t, &handshake{Backend: "perfect", VarNames: names, Meta: meta}, batches))

	post := func(url string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", url, bytes.NewReader(body))
		srv.HTTPHandler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	code, body := post("/sessions/1/diff", profile)
	if code != 200 {
		t.Fatalf("self-diff: status %d: %s", code, body)
	}
	var page struct {
		Common       int        `json:"common"`
		Identical    bool       `json:"identical"`
		OnlyBaseline []struct{} `json:"only_baseline"`
		OnlyLive     []struct{} `json:"only_live"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if !page.Identical || page.Common == 0 || len(page.OnlyBaseline) != 0 || len(page.OnlyLive) != 0 {
		t.Fatalf("self-diff: %+v, want identical with common > 0", page)
	}

	// A baseline missing the carried RAW: decode, drop one key, re-encode.
	set, _, tab, err := dep.Decode(bytes.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	smaller := dep.NewSet()
	dropped := false
	set.Range(func(k dep.Key, st dep.Stats) bool {
		if !dropped && k.Type == dep.RAW {
			dropped = true
			return true
		}
		*smaller.Ref(k) = st
		return true
	})
	var baseline bytes.Buffer
	if err := dep.Encode(&baseline, smaller, tab, nil); err != nil {
		t.Fatal(err)
	}
	code, body = post("/sessions/1/diff", baseline.Bytes())
	if code != 200 {
		t.Fatalf("diff: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatal(err)
	}
	if page.Identical || len(page.OnlyLive) != 1 || len(page.OnlyBaseline) != 0 {
		t.Fatalf("dropped-key diff: %+v, want exactly one live-only dependence", page)
	}

	if code, _ := post("/sessions/1/diff", []byte("not a profile")); code != 400 {
		t.Fatalf("garbage baseline: status %d, want 400", code)
	}
	if code, _ := post("/sessions/77/diff", profile); code != 404 {
		t.Fatalf("unknown session: status %d, want 404", code)
	}
}

// TestSessionSeriesLifecycle: per-session labeled counters are capped at
// SessionSeriesMax, overflow sessions share one series, and a session's
// series leaves /metrics when it closes.
func TestSessionSeriesLifecycle(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg, SessionSeriesMax: 2})

	has := func(name string) bool {
		_, ok := reg.Snapshot()[name]
		return ok
	}
	name := func(id int) string {
		return fmt.Sprintf("server_session_events_total{session=\"%d\"}", id)
	}

	s1, s2 := srv.sessionSeries(1), srv.sessionSeries(2)
	rel1, rel2 := s1.release, s2.release
	s1.events.Inc()
	s2.events.Add(5)
	if !has(name(1)) || !has(name(2)) {
		t.Fatal("labeled series missing under the cap")
	}
	// The whole instrument bundle shares the one series slot.
	if !has(`server_session_batch_events{session="1"}_count`) {
		t.Fatal("batch-size histogram missing for session 1")
	}

	s3 := srv.sessionSeries(3)
	rel3 := s3.release
	s3.events.Add(7)
	if has(name(3)) {
		t.Fatal("session 3 got a labeled series past the cap")
	}
	overflow := `server_session_events_total{session="overflow"}`
	if v := reg.Snapshot()[overflow]; v != 7 {
		t.Fatalf("overflow series = %v, want 7", v)
	}

	rel1()
	rel1() // idempotent
	if has(name(1)) || has(`server_session_batch_events{session="1"}_count`) {
		t.Fatal("session 1 series survived its release")
	}
	// The freed slot goes to the next session.
	s4 := srv.sessionSeries(4)
	rel4 := s4.release
	s4.events.Inc()
	if !has(name(4)) {
		t.Fatal("freed series slot not reused")
	}
	rel2()
	rel3()
	rel4()
	if has(name(2)) || has(name(4)) {
		t.Fatal("series survived release")
	}
	if !has(overflow) {
		t.Fatal("overflow series must persist (it is shared, never evicted)")
	}
}

// --- observatory unit coverage (no sockets) ---

// mkDelta builds one worker's epoch delta with a single RAW dependence on
// var 1 counted n times.
func mkDelta(epoch uint32, worker int, sink, src int, n uint64) *core.EpochDelta {
	s := dep.NewSet()
	s.SetEpoch(epoch)
	k := dep.Key{Type: dep.RAW, Sink: loc.Pack(1, sink), Src: loc.Pack(1, src), Var: 1}
	for i := uint64(0); i < n; i++ {
		s.Add(k, true, false, false)
	}
	d := dep.NewSet()
	s.ExtractDelta(d)
	s.Release()
	return &core.EpochDelta{Epoch: epoch, Worker: worker, Deps: d}
}

// TestObservatoryEpochAssembly: an epoch's frame is cut only when every
// worker has reported it, and the frame unions the shards.
func TestObservatoryEpochAssembly(t *testing.T) {
	o := newObservatory(1, 2, []string{"x", "a"})
	defer o.release()
	_, sub, done := o.subscribe(0)
	if done {
		t.Fatal("fresh observatory reports done")
	}
	o.offer(mkDelta(1, 0, 10, 9, 3))
	select {
	case f := <-sub.ch:
		t.Fatalf("frame %+v cut before all workers reported", f)
	default:
	}
	o.offer(mkDelta(1, 1, 10, 9, 4))
	select {
	case f := <-sub.ch:
		set, _, _, err := dep.Decode(bytes.NewReader(f.Payload))
		if err != nil {
			t.Fatal(err)
		}
		defer set.Release()
		if f.Epoch != 1 || set.Unique() != 1 || set.Instances() != 7 {
			t.Fatalf("epoch %d frame: %d deps, %d instances; want 1 dep, 7 instances", f.Epoch, set.Unique(), set.Instances())
		}
	case <-time.After(time.Second):
		t.Fatal("no frame after the last worker reported")
	}
	o.unsubscribe(sub)

	page := o.depsSince(0)
	if page.Unique != 1 || page.Epoch != 1 || page.Final {
		t.Fatalf("live store: %+v", page)
	}
}

// TestObservatorySlowSubscriberEvicted: a subscriber that never drains is
// cut loose once its buffer fills; the session is never blocked.
func TestObservatorySlowSubscriberEvicted(t *testing.T) {
	o := newObservatory(1, 1, []string{"x", "a"})
	defer o.release()
	_, sub, _ := o.subscribe(0)
	for e := uint32(1); e <= subBuffer+2; e++ {
		done := make(chan struct{})
		go func() {
			o.offer(mkDelta(e, 0, 10, 9, 1))
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("offer blocked on a slow subscriber")
		}
	}
	drained := 0
	for range sub.ch {
		drained++
	}
	if drained != subBuffer {
		t.Fatalf("drained %d frames, want exactly the buffer depth %d", drained, subBuffer)
	}
	o.unsubscribe(sub) // must be safe after eviction
}

// TestObservatoryCatchUpSince: a late subscriber's catch-up frame carries the
// profile so far, filtered to first-observed >= since.
func TestObservatoryCatchUpSince(t *testing.T) {
	o := newObservatory(1, 1, []string{"x", "a"})
	defer o.release()
	o.offer(mkDelta(1, 0, 10, 9, 2))  // key A, first observed epoch 1
	o.offer(mkDelta(2, 0, 20, 19, 3)) // key B, first observed epoch 2

	catch, sub, done := o.subscribe(0)
	if done || catch == nil {
		t.Fatalf("catch-up: done %v, frame %v", done, catch)
	}
	set, _, _, err := dep.Decode(bytes.NewReader(catch.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != 2 || set.Instances() != 5 || catch.Epoch != 2 || catch.Final {
		t.Fatalf("since=0 catch-up: %d deps, %d instances, epoch %d", set.Unique(), set.Instances(), catch.Epoch)
	}
	set.Release()
	o.unsubscribe(sub)

	catch, sub, _ = o.subscribe(2)
	set, _, _, err = dep.Decode(bytes.NewReader(catch.Payload))
	if err != nil {
		t.Fatal(err)
	}
	if set.Unique() != 1 || set.Instances() != 3 {
		t.Fatalf("since=2 catch-up: %d deps, %d instances; want just key B", set.Unique(), set.Instances())
	}
	set.Release()
	o.unsubscribe(sub)
}

// TestObservatoryAbort: aborting closes subscriber streams without a final
// frame and late subscribers are turned away already-done.
func TestObservatoryAbort(t *testing.T) {
	o := newObservatory(1, 1, []string{"x"})
	defer o.release()
	_, sub, _ := o.subscribe(0)
	o.abort()
	if f, ok := <-sub.ch; ok {
		t.Fatalf("aborted subscriber received frame %+v", f)
	}
	if !o.isAborted() || o.active() {
		t.Fatal("abort state not visible")
	}
	_, late, done := o.subscribe(0)
	if !done {
		t.Fatal("post-abort subscriber not told the session is over")
	}
	if _, ok := <-late.ch; ok {
		t.Fatal("post-abort subscriber channel not closed")
	}
	o.offer(mkDelta(1, 0, 10, 9, 1)) // dropped, not folded
	if o.depsSince(0).Unique != 0 {
		t.Fatal("post-abort offer folded into the live store")
	}
}
