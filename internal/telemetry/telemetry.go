// Package telemetry provides the profiler's observability layer: cheap
// atomic counters, gauges and log-bucketed latency histograms that the hot
// pipeline paths update at chunk granularity, collected in a Registry that
// renders a plain-text exposition page (one `name value` pair per line,
// Prometheus-style) over HTTP.
//
// The pipeline metrics (events in, queue depth per worker, chunk-pool
// recycling, signature occupancy, stage latencies, live Eq. (2) accuracy)
// are grouped in a Pipeline so
// internal/core can bump typed fields without map lookups on the hot path.
// The ddprofd daemon serves a Registry per process; `ddexp -metrics addr`
// serves the same page for local experiment runs. The Snapshotter
// (snapshot.go) turns the same Registry into a time series: a fixed ring of
// periodic samples exportable as Chrome trace-event JSON.
package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is an instantaneous atomic value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// SetMax raises the gauge to v if v is larger (high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use; metric handles are interned, so hot paths should hold the
// *Counter / *Gauge / *Histogram rather than re-resolving names.
type Registry struct {
	mu         sync.RWMutex
	start      time.Time
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	pipelines  map[string]*Pipeline

	// previous scrape snapshot, for windowed per-second rates.
	scrapeMu   sync.Mutex
	lastScrape time.Time
	lastVals   map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:      time.Now(),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		pipelines:  make(map[string]*Pipeline),
		lastVals:   make(map[string]uint64),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it if
// needed. The exposition page renders it as `<name>_count`, `<name>_sum` and
// the `<name>_p50/_p90/_p99` quantiles.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Remove deletes the metrics registered under the given names — counters,
// gauges and histograms alike — so bounded-cardinality labeled series (the
// daemon's per-session counters) can be evicted when their subject goes away.
// Holding a removed metric's handle stays safe: updates through it simply no
// longer reach any exposition. Re-registering the same name later yields a
// fresh metric starting from zero.
func (r *Registry) Remove(names ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range names {
		delete(r.counters, n)
		delete(r.gauges, n)
		delete(r.histograms, n)
	}
}

// histQuantiles are the quantiles the exposition page and Snapshot render
// for every histogram.
var histQuantiles = []struct {
	suffix string
	q      float64
}{{"_p50", 0.50}, {"_p90", 0.90}, {"_p99", 0.99}}

// WriteText renders every metric as one `name value` line, sorted by line.
// Counters whose name ends in `_total` additionally get a `<base>_per_sec`
// line: the rate over the window since the previous WriteText call (since
// registry creation on the first call). Histograms render as count, sum and
// quantile lines. The whole page is rendered to a private buffer before the
// first byte reaches w, so a slow reader (a stalled scrape socket) never
// holds any registry lock, and the output is deterministic for equal metric
// values: fully sorted, one line per metric.
func (r *Registry) WriteText(w io.Writer) {
	buf := r.renderText()
	w.Write(buf)
}

// renderText produces the exposition page. All locks are released before it
// returns; the caller owns the byte slice.
func (r *Registry) renderText() []byte {
	now := time.Now()
	r.mu.RLock()
	cvals := make(map[string]uint64, len(r.counters))
	for n, c := range r.counters {
		cvals[n] = c.Load()
	}
	gvals := make(map[string]int64, len(r.gauges))
	for n, g := range r.gauges {
		gvals[n] = g.Load()
	}
	hsnaps := make(map[string]histSnap, len(r.histograms))
	hsums := make(map[string]uint64, len(r.histograms))
	for n, h := range r.histograms {
		hsnaps[n] = h.snapshot()
		hsums[n] = h.Sum()
	}
	r.mu.RUnlock()

	r.scrapeMu.Lock()
	since := r.lastScrape
	if since.IsZero() {
		since = r.start
	}
	window := now.Sub(since).Seconds()
	prev := r.lastVals
	next := make(map[string]uint64, len(cvals))
	for n, v := range cvals {
		next[n] = v
	}
	r.lastVals = next
	r.lastScrape = now
	r.scrapeMu.Unlock()

	lines := make([]string, 0, len(cvals)+len(gvals)+5*len(hsnaps))
	for n, v := range cvals {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
		if base, ok := rateBase(n); ok && window > 0 {
			lines = append(lines, fmt.Sprintf("%s_per_sec %.2f", base, float64(v-prev[n])/window))
		}
	}
	for n, v := range gvals {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	for n, s := range hsnaps {
		lines = append(lines, fmt.Sprintf("%s_count %d", n, s.count))
		lines = append(lines, fmt.Sprintf("%s_sum %d", n, hsums[n]))
		for _, hq := range histQuantiles {
			lines = append(lines, fmt.Sprintf("%s%s %.0f", n, hq.suffix, s.quantile(hq.q)))
		}
	}
	sort.Strings(lines)

	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// Snapshot returns the current value of every metric, keyed by exposition
// name: counters and gauges verbatim, histograms as their _count, _sum and
// quantile entries. Unlike WriteText it computes no rate lines and touches
// no scrape-window state, so periodic sampling (the Snapshotter) and scrape
// rates cannot disturb each other.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.counters)+len(r.gauges)+5*len(r.histograms))
	for n, c := range r.counters {
		out[n] = float64(c.Load())
	}
	for n, g := range r.gauges {
		out[n] = float64(g.Load())
	}
	for n, h := range r.histograms {
		s := h.snapshot()
		out[n+"_count"] = float64(s.count)
		out[n+"_sum"] = float64(h.Sum())
		for _, hq := range histQuantiles {
			out[n+hq.suffix] = s.quantile(hq.q)
		}
	}
	return out
}

// rateBase reports whether a counter name should get a derived rate line.
func rateBase(name string) (string, bool) {
	const suffix = "_total"
	if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
		return name[:len(name)-len(suffix)], true
	}
	return "", false
}

// Handler serves the text exposition page. The page is fully rendered before
// the response starts, so a slow client costs socket buffer space, never a
// registry lock.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		buf := r.renderText()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(buf)
	})
}

// DebugMux returns a mux serving the debug endpoints ddprofd and
// `ddexp -metrics` share: /metrics (reg's page), /debug/timeline (snap's
// ring, when snap is non-nil) and the standard /debug/pprof routes. Callers
// add their own routes to it.
func DebugMux(reg *Registry, snap *Snapshotter) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	if snap != nil {
		mux.Handle("/debug/timeline", snap.TimelineHandler())
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// MaxWorkerSlots is the number of per-worker gauges a Pipeline carries.
// Worker i reports into slot i mod MaxWorkerSlots, so arbitrarily wide
// pipelines alias rather than allocate.
const MaxWorkerSlots = 64

// Pipeline groups the counters the profiling pipeline updates on its hot
// paths. Fields are plain pointers so internal/core pays one atomic op per
// chunk, not a registry lookup. A Pipeline may be shared by many concurrent
// pipelines (the daemon aggregates all sessions into one); counters then
// report totals and gauges last-observed values.
type Pipeline struct {
	// Events counts read/write accesses entering the pipeline.
	Events *Counter
	// Chunks counts chunks pushed to workers.
	Chunks *Counter
	// DepCacheHits / DepCacheProbes report the detection engines' instance
	// cache: a hit records a dependence instance with zero map operations.
	// Published at sampled-batch granularity while the run is live, with the
	// remainder folded in at flush.
	DepCacheHits   *Counter
	DepCacheProbes *Counter
	// DupCollapsed counts consecutive duplicate reads the producer collapsed
	// into repetition counts before chunking; events_total + dup_collapsed
	// equals the logical access count.
	DupCollapsed *Counter
	// Ranges counts ingested wire ranges (trace range records); RangeElements
	// the accesses they expanded into at the ingest seam. Range elements are already included in Events — these counters
	// measure what the client compressed, not extra traffic.
	Ranges        *Counter
	RangeElements *Counter
	// TraceSiteDefines counts the define records remote sessions decoded
	// (trace.Reader.SiteDefines), TraceSiteRedefines those that evicted another
	// site from its slot; a session publishes its pair at flush. Redefines
	// near events_total mean clients' hot sites collide in the wire's table.
	TraceSiteDefines   *Counter
	TraceSiteRedefines *Counter
	// QueueDepth[i] is the last queue depth observed for worker i at chunk
	// push time (including the chunk just pushed); QueueDepthMax is the
	// high-water mark across all workers.
	QueueDepth    [MaxWorkerSlots]*Gauge
	QueueDepthMax *Gauge
	// SigOccupancyPermille is the mean signature write-slot occupancy of the
	// last flushed pipeline, in thousandths.
	SigOccupancyPermille *Gauge

	// Stage latency histograms (nanoseconds), the flight recorder's span
	// layer. All are recorded at sampled chunk/batch granularity (one in 32)
	// so clock reads stay off the hot path:
	//
	//	StageProduceNs       per-chunk producer routing: push (including any
	//	                     backpressure wait), depth observation, refill
	//	StageTransportWaitNs worker-side wait for the next non-empty batch
	//	StageWorkerNs        one worker batch through the detection engine
	//	StageMergeNs         the merge stage, once per flushed run
	StageProduceNs       *Histogram
	StageTransportWaitNs *Histogram
	StageWorkerNs        *Histogram
	StageMergeNs         *Histogram

	// StoreBytes, published at Flush for every backend, is the summed actual
	// footprint of all worker stores (shadow page accounting, hash-table
	// entries, signature slot arrays alike).
	StoreBytes *Gauge
}

// ObserveQueueDepth records a queue-depth observation for one worker: the
// per-worker gauge takes the latest value (aliased into MaxWorkerSlots
// slots) and the pipeline-wide high-water mark rises monotonically. Both the
// producer (at chunk push time) and the merge stage (consumer-observed
// maxima) report through this one helper so every mode's gauges agree on
// semantics.
func (p *Pipeline) ObserveQueueDepth(worker int, depth int64) {
	p.QueueDepth[worker%MaxWorkerSlots].Set(depth)
	p.QueueDepthMax.SetMax(depth)
}

// Pipeline returns the pipeline metric group registered under prefix,
// creating it if needed. All metric names are "<prefix>_<metric>".
func (r *Registry) Pipeline(prefix string) *Pipeline {
	r.mu.RLock()
	p := r.pipelines[prefix]
	r.mu.RUnlock()
	if p != nil {
		return p
	}
	p = &Pipeline{
		Events:               r.Counter(prefix + "_events_total"),
		Chunks:               r.Counter(prefix + "_chunks_total"),
		DepCacheHits:         r.Counter(prefix + "_dep_cache_hits_total"),
		DepCacheProbes:       r.Counter(prefix + "_dep_cache_probes_total"),
		DupCollapsed:         r.Counter(prefix + "_dup_collapsed_total"),
		Ranges:               r.Counter(prefix + "_ranges_total"),
		RangeElements:        r.Counter(prefix + "_range_elements_total"),
		TraceSiteDefines:     r.Counter(prefix + "_trace_site_defines_total"),
		TraceSiteRedefines:   r.Counter(prefix + "_trace_site_redefines_total"),
		QueueDepthMax:        r.Gauge(prefix + "_queue_depth_max"),
		SigOccupancyPermille: r.Gauge(prefix + "_sig_occupancy_permille"),
		StageProduceNs:       r.Histogram(prefix + "_stage_produce_ns"),
		StageTransportWaitNs: r.Histogram(prefix + "_stage_transport_wait_ns"),
		StageWorkerNs:        r.Histogram(prefix + "_stage_worker_ns"),
		StageMergeNs:         r.Histogram(prefix + "_stage_merge_ns"),
		StoreBytes:           r.Gauge(prefix + "_store_bytes"),
	}
	for i := range p.QueueDepth {
		p.QueueDepth[i] = r.Gauge(fmt.Sprintf("%s_queue_depth{worker=\"%d\"}", prefix, i))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if exist := r.pipelines[prefix]; exist != nil {
		return exist
	}
	r.pipelines[prefix] = p
	return p
}
