package main

import (
	"fmt"
	"os"
	"time"
)

// endToEnd and perLayer are the metric names this harness emits, with their
// units: exactly the end_to_end and per_layer lists of BENCHMARK.json (a
// test holds the two to each other). bench/README.md has the glossary.
var endToEnd = []struct{ name, unit string }{
	{"events_per_s", "1/s"},
	{"cpu_ns_per_event", "ns"},
	{"peak_rss_mb", "MB"},
	{"profiler_mb", "MB"},
	{"dep_precision_pct", "%"},
	{"dep_recall_pct", "%"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"vm.raw_ns_per_event", "ns"},
	{"event.hook_ns_per_event", "ns"},
	{"vm.slowdown_x", "x"},
	{"sig.store_ns_per_event", "ns"},
	{"sig.store_mb", "MB"},
	{"sig.occupancy_pct", "%"},
	{"sig.addresses", "count"},
	{"sig.slots", "count"},
	{"core.engine_ns_per_event", "ns"},
	{"core.engine.cache_hit_pct", "%"},
	{"core.serial_ns_per_event", "ns"},
	{"core.producer_ns_per_event", "ns"},
	{"core.producer.dup_collapsed_pct", "%"},
	{"core.producer.comp_ratio", "x"},
	{"core.producer.chunks", "count"},
	{"core.producer.migrations", "count"},
	{"core.worker_imbalance", "x"},
	{"stride.track_ns_per_event", "ns"},
	{"queue.spsc_ns_per_chunk", "ns"},
	{"queue.mpsc_ns_per_push", "ns"},
	{"queue.mb", "MB"},
	{"core.new_ms", "ms"},
	{"core.flush_ms", "ms"},
	{"dep.unique", "count"},
	{"dep.instances", "count"},
	{"dep.set_mb", "MB"},
	{"dep.encode_ms", "ms"},
	{"dep.encode_bytes", "count"},
	{"analysis.discover_ms", "ms"},
	{"trace.encode_ns_per_event", "ns"},
	{"trace.bytes_per_event", "count"},
	{"trace.decode_ns_per_event", "ns"},
	{"trace.batch_events", "count"},
	{"core.batch_ns_per_event", "ns"},
	{"server.session_ns_per_event", "ns"},
	{"dep_fpr_pct", "%"},
	{"dep_fnr_pct", "%"},
	{"ledger.wall_ns_per_event", "ns"},
	{"ledger.residual_ns_per_event", "ns"},
	{"bench.tracing_overhead_pct", "%"},
}

func names(list []struct{ name, unit string }) []string {
	out := make([]string, len(list))
	for i, m := range list {
		out[i] = m.name
	}
	return out
}

// traceRun is the separate traced run behind the per-layer metrics. It
// alternates untraced and traced repetitions for half of opt.seconds — the
// median slowdown of a traced repetition against the untraced one before it
// is the tracing overhead, and the traced ones' spans give the construction,
// Flush, encode and analysis tails — then prices every module on each
// program's captured stream (the ledger), sets the ladder against the
// untraced wall time, and leaves the spans behind as Chrome trace JSON.
func traceRun(w workload, opt options) (rep *report, err error) {
	rep, e, want, err := newReport(w, opt, true)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); err == nil {
			err = cerr
		}
	}()
	tr := newTracer()

	var plain, overhead []float64 // untraced events/s at nominal speed; traced slowdown per pair, %
	var newMs, flushMs, encodeMs, discoverMs []float64
	var last repetition
	deadline := time.Now().Add(time.Duration(opt.seconds / 2 * float64(time.Second)))
	for len(plain) < 2 || time.Now().Before(deadline) {
		r := e.repeat(nil, want)
		rep.count(r)
		mark := len(tr.spans)
		rt := e.repeat(tr, want)
		rep.count(rt)
		if len(r.fails)+len(rt.fails) > 0 {
			if rep.Failed > minReps {
				break
			}
			continue
		}
		plain = append(plain, float64(r.events)/r.wallRef)
		overhead = append(overhead, 100*(rt.wallRef/r.wallRef-1))
		self := tr.selfTimes(mark)
		scale := rt.wallRef / rt.wall.Seconds() // the repetition's speed correction
		ms := func(name string) float64 { return float64(self[name]) / 1e6 * scale }
		newMs = append(newMs, ms("core.New"))
		flushMs = append(flushMs, ms("Profiler.Flush"))
		encodeMs = append(encodeMs, ms("dep.Encode"))
		discoverMs = append(discoverMs, ms("analysis.DiscoverParallelism"))
		last = rt
	}
	if len(plain) == 0 {
		return rep, nil
	}

	l := &ledger{ns: make(map[string]float64)}
	for _, t := range e.targets {
		if err := l.program(e, t, tr); err != nil {
			return nil, fmt.Errorf("ledger %s/%s: %w", w.name, t.name, err)
		}
	}

	set := func(name string, v float64) {
		for _, m := range perLayer {
			if m.name == name {
				rep.Metrics[name] = metric{Value: v, Unit: m.unit}
				return
			}
		}
		panic("ddbench: metric " + name + " is not declared in perLayer")
	}
	for _, m := range perLayer {
		set(m.name, 0) // a layer off this workload's path reads 0
	}
	perEvent := func(layer string) float64 { return l.ns[layer] / l.events }

	set("vm.raw_ns_per_event", perEvent("vm.raw"))
	set("event.hook_ns_per_event", perEvent("event.hook"))
	set("vm.slowdown_x", l.profiledNs/l.ns["vm.raw"])
	set("sig.store_ns_per_event", perEvent("sig.store"))
	set("sig.store_mb", float64(l.storeBytes)/(1<<20))
	set("sig.occupancy_pct", median(l.occupancy))
	set("sig.addresses", float64(l.addresses))
	set("sig.slots", float64(l.slots))
	set("core.engine_ns_per_event", perEvent("core.engine"))
	if l.cacheProbes > 0 {
		set("core.engine.cache_hit_pct", 100*float64(l.cacheHits)/float64(l.cacheProbes))
	}

	// The pipeline's own counters, from the last traced repetition.
	var accesses, dup, ranges, rangeElems, chunks, migrations, queueBytes uint64
	var unique, instances, ddp1 float64
	var setBytes uint64
	imbalance := 0.0
	for _, p := range last.profiles {
		s := p.stats
		accesses += s.Accesses
		dup += s.DupCollapsed
		ranges += s.Ranges
		rangeElems += s.RangeElements
		chunks += s.Chunks
		migrations += s.Migrations
		queueBytes = max(queueBytes, s.QueueBytes)
		unique += float64(p.deps.Unique())
		instances += float64(p.deps.Instances())
		setBytes = max(setBytes, depSetBytes(p.deps.Unique()))
		ddp1 += float64(p.ddp1Bytes)
		imbalance = max(imbalance, workerImbalance(p.workerEvents))
	}
	if w.via == viaParallel && accesses > 0 {
		set("core.producer_ns_per_event", perEvent("core.producer"))
		set("core.producer.dup_collapsed_pct", 100*float64(dup)/float64(accesses))
		// Chunk slots the accesses took once duplicate reads and strided
		// runs were folded: accesses per slot.
		set("core.producer.comp_ratio", float64(accesses)/float64(accesses-dup-rangeElems+ranges))
		set("core.producer.chunks", float64(chunks))
		set("core.producer.migrations", float64(migrations))
		set("stride.track_ns_per_event", perEvent("stride.track"))
		set("queue.spsc_ns_per_chunk", e.timedPart(tr, "ledger:queue.spsc", spscTransfer)/queueOps)
	}
	if w.via == viaMT {
		set("core.producer.migrations", float64(migrations))
		set("queue.mpsc_ns_per_push", e.timedPart(tr, "ledger:queue.mpsc", mpscTransfer)/queueOps)
	}
	if w.via == viaParallel || w.via == viaMT {
		set("core.worker_imbalance", imbalance)
	}
	set("queue.mb", float64(queueBytes)/(1<<20))
	set("core.new_ms", median(newMs))
	set("core.flush_ms", median(flushMs))
	set("dep.unique", unique)
	set("dep.instances", instances)
	set("dep.set_mb", float64(setBytes)/(1<<20))
	set("dep.encode_ms", median(encodeMs))
	set("dep.encode_bytes", ddp1)
	set("analysis.discover_ms", median(discoverMs))
	set("dep_fpr_pct", 100-precision(last.rates))
	set("dep_fnr_pct", 100-recall(last.rates))

	wall := 1e9 / median(plain) // untraced end-to-end ns/event
	tails := (median(newMs) + median(flushMs) + median(encodeMs) + median(discoverMs)) * 1e6 / float64(last.events)
	ladder := perEvent("vm.raw") + perEvent("event.hook") + tails
	switch w.via {
	case viaSerial:
		set("core.serial_ns_per_event", perEvent("core.serial"))
		ladder += perEvent("sig.store") + perEvent("core.engine")
	case viaParallel:
		// Stages overlap: the target's thread pays the producer, the
		// workers run the engine beside it.
		ladder += perEvent("core.producer")
	case viaMT:
		ladder += rep.Metrics["queue.mpsc_ns_per_push"].Value
	case viaRemote:
		set("trace.encode_ns_per_event", perEvent("trace.encode"))
		set("trace.bytes_per_event", float64(l.traceBytes)/l.events)
		set("trace.decode_ns_per_event", perEvent("trace.decode"))
		set("trace.batch_events", l.events/float64(l.batches))
		set("core.batch_ns_per_event", perEvent("core.batch"))
		wire := perEvent("trace.encode") + perEvent("trace.decode") + perEvent("core.batch")
		// What is left of the remote wall time once execution, hook
		// delivery and the three wire stages are paid: framing, the socket,
		// the session loop — minus whatever the daemon's goroutines overlap
		// with the client (sign kept).
		session := wall - (perEvent("vm.raw") + perEvent("event.hook") + wire)
		set("server.session_ns_per_event", session)
		ladder += wire + session - tails // session already holds the tails
	}
	set("ledger.wall_ns_per_event", wall)
	set("ledger.residual_ns_per_event", wall-ladder)
	set("bench.tracing_overhead_pct", median(overhead))

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	if err := tr.writeChrome(tracePath(opt, w)); err != nil {
		return nil, err
	}
	rep.Notes = append(rep.Notes, fmt.Sprintf("%d spans in %s", len(tr.spans), tracePath(opt, w)))
	return rep, nil
}

// workerImbalance is the busiest worker's event count over the mean: 1 is a
// perfect split (§IV-A's load-balancing quantity).
func workerImbalance(events []uint64) float64 {
	if len(events) == 0 {
		return 0
	}
	var sum, top uint64
	for _, n := range events {
		sum += n
		top = max(top, n)
	}
	if sum == 0 {
		return 0
	}
	return float64(top) * float64(len(events)) / float64(sum)
}
