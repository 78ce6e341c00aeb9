// Package telemetry provides the profiler's observability layer: cheap
// atomic counters and gauges that the hot pipeline paths update at batch
// granularity, collected in a Registry that renders a plain-text exposition
// page (one `name value` pair per line, Prometheus-style) over HTTP.
//
// The pipeline metrics (events in, dep-cache hits, queue depth per worker,
// signature occupancy, store bytes) are grouped in a Pipeline so internal/core
// can bump typed fields without map lookups on the hot path. The ddprofd
// daemon serves a Registry per process; `ddexp -metrics addr` serves the same
// page for local experiment runs. Neither keeps a timeline of its own: Go's
// /debug/pprof/trace, served by DebugMux, is the time series.
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
// *Counter / *Gauge rather than re-resolving names.
type Registry struct {
	mu        sync.RWMutex
	start     time.Time
	counters  map[string]*Counter
	gauges    map[string]*Gauge
	pipelines map[string]*Pipeline

	// previous scrape snapshot, for windowed per-second rates.
	scrapeMu   sync.Mutex
	lastScrape time.Time
	lastVals   map[string]uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		start:     time.Now(),
		counters:  make(map[string]*Counter),
		gauges:    make(map[string]*Gauge),
		pipelines: make(map[string]*Pipeline),
		lastVals:  make(map[string]uint64),
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

// WriteText renders every metric as one `name value` line, sorted by line.
// Counters whose name ends in `_total` additionally get a `<base>_per_sec`
// line: the rate over the window since the previous WriteText call (since
// registry creation on the first call). The whole page is rendered to a private buffer before the
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

	lines := make([]string, 0, 2*len(cvals)+len(gvals))
	for n, v := range cvals {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
		if base, ok := rateBase(n); ok && window > 0 {
			lines = append(lines, fmt.Sprintf("%s_per_sec %.2f", base, float64(v-prev[n])/window))
		}
	}
	for n, v := range gvals {
		lines = append(lines, fmt.Sprintf("%s %d", n, v))
	}
	sort.Strings(lines)

	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
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
// `ddexp -metrics` share: /metrics (reg's page) and the standard /debug/pprof
// routes, /debug/pprof/trace included. Callers add their own routes to it.
func DebugMux(reg *Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
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
// batch, not a registry lookup. A Pipeline may be shared by many concurrent
// pipelines (the daemon aggregates all sessions into one); counters then
// report totals and gauges last-observed values.
type Pipeline struct {
	// Events counts read/write accesses the pipeline processed.
	Events *Counter
	// DepCacheHits / DepCacheProbes report the detection engines' instance
	// cache: a hit records a dependence instance with zero map operations.
	// Published at sampled-batch granularity while the run is live, with the
	// remainder folded in at flush.
	DepCacheHits   *Counter
	DepCacheProbes *Counter
	// Ranges counts ingested wire ranges (trace range records); RangeElements
	// the accesses they expanded into at the ingest seam. Range elements are
	// already included in Events: these counters measure what the client
	// compressed, not extra traffic.
	Ranges        *Counter
	RangeElements *Counter
	// TraceSiteDefines counts the define records remote sessions decoded
	// (trace.Reader.SiteDefines), TraceSiteRedefines those that evicted another
	// site from its slot; a session publishes its pair at flush. Redefines
	// near events_total mean clients' hot sites collide in the wire's table.
	TraceSiteDefines   *Counter
	TraceSiteRedefines *Counter
	// QueueDepth[i] is the deepest worker i has seen its ring at a pop so far
	// (the batch in hand included); QueueDepthMax is the high-water mark
	// across all workers.
	QueueDepth    [MaxWorkerSlots]*Gauge
	QueueDepthMax *Gauge
	// SigOccupancyPermille is the mean signature write-slot occupancy of the
	// last flushed pipeline, in thousandths.
	SigOccupancyPermille *Gauge

	// StoreBytes, published at Flush for every backend, is the summed actual
	// footprint of all worker stores (shadow page accounting, hash-table
	// entries, signature slot arrays alike).
	StoreBytes *Gauge
}

// ObserveQueueDepth records a queue-depth observation for one worker: the
// per-worker gauge takes the latest value (aliased into MaxWorkerSlots
// slots) and the pipeline-wide high-water mark rises monotonically. The
// workers report their rings' consumer-observed maxima through it, in flight
// and at the merge.
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
		DepCacheHits:         r.Counter(prefix + "_dep_cache_hits_total"),
		DepCacheProbes:       r.Counter(prefix + "_dep_cache_probes_total"),
		Ranges:               r.Counter(prefix + "_ranges_total"),
		RangeElements:        r.Counter(prefix + "_range_elements_total"),
		TraceSiteDefines:     r.Counter(prefix + "_trace_site_defines_total"),
		TraceSiteRedefines:   r.Counter(prefix + "_trace_site_redefines_total"),
		QueueDepthMax:        r.Gauge(prefix + "_queue_depth_max"),
		SigOccupancyPermille: r.Gauge(prefix + "_sig_occupancy_permille"),
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
