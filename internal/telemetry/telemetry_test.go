package telemetry

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total")
	g := r.Gauge("depth")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.Set(int64(j))
				g.SetMax(int64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if g.Load() < 0 || g.Load() > 8000 {
		t.Fatalf("gauge = %d out of range", g.Load())
	}
}

func TestSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if g.Load() != 5 {
		t.Fatalf("SetMax regressed: %d", g.Load())
	}
	g.SetMax(9)
	if g.Load() != 9 {
		t.Fatalf("SetMax did not advance: %d", g.Load())
	}
}

func TestRegistryInterning(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a_total") != r.Counter("a_total") {
		t.Error("Counter not interned")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("Gauge not interned")
	}
	if r.Pipeline("p") != r.Pipeline("p") {
		t.Error("Pipeline not interned")
	}
}

func TestWriteTextAndRates(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(500)
	r.Gauge("depth").Set(7)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"events_total 500\n", "depth 7\n", "events_per_sec "} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The first scrape rates against registry creation; with any elapsed time
	// the derived rate is positive.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "events_per_sec ") {
			val := strings.TrimPrefix(line, "events_per_sec ")
			if val == "0" || val == "0.0" {
				t.Errorf("events_per_sec is zero on first scrape: %q", line)
			}
		}
	}
}

func TestPipelineMetricNames(t *testing.T) {
	r := NewRegistry()
	p := r.Pipeline("pipeline")
	p.Events.Add(10)
	p.QueueDepth[0].Set(3)
	p.QueueDepthMax.SetMax(3)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"pipeline_events_total 10",
		`pipeline_queue_depth{worker="0"} 3`,
		"pipeline_queue_depth_max 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestSetMaxContention(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	const workers = 16
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				g.SetMax(int64(rng.Intn(1_000_000)))
			}
		}(int64(w))
	}
	wg.Wait()
	// The high-water mark can only have been one of the submitted values.
	if v := g.Load(); v < 0 || v >= 1_000_000 {
		t.Fatalf("SetMax final value %d out of submitted range", v)
	}
	final := g.Load()
	g.SetMax(final - 1)
	if g.Load() != final {
		t.Fatal("SetMax regressed below the high-water mark")
	}
}

func TestWriteTextSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(1)
	r.Counter("aa_total").Add(2)
	r.Gauge("mm_depth").Set(3)
	r.Histogram("hh_latency_ns").Observe(100)
	var first strings.Builder
	r.WriteText(&first)
	lines := strings.Split(strings.TrimRight(first.String(), "\n"), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Fatalf("exposition lines not sorted:\n%s", first.String())
	}
	// Histograms render count, sum and the three quantiles.
	for _, want := range []string{
		"hh_latency_ns_count 1", "hh_latency_ns_sum 100",
		"hh_latency_ns_p50 ", "hh_latency_ns_p90 ", "hh_latency_ns_p99 ",
	} {
		if !strings.Contains(first.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, first.String())
		}
	}
	// Two scrapes with unchanged metrics differ only in rate lines.
	var second strings.Builder
	r.WriteText(&second)
	stripRates := func(s string) string {
		var keep []string
		for _, l := range strings.Split(s, "\n") {
			if !strings.Contains(l, "_per_sec ") {
				keep = append(keep, l)
			}
		}
		return strings.Join(keep, "\n")
	}
	if stripRates(first.String()) != stripRates(second.String()) {
		t.Errorf("exposition not deterministic across scrapes:\n--- first\n%s\n--- second\n%s",
			first.String(), second.String())
	}
}

// reentrantWriter proves no registry lock is held while the page is written:
// its Write calls back into the registry, which would deadlock against a
// held write lock (new-metric interning) on the scraping goroutine.
type reentrantWriter struct {
	r *Registry
	n int
}

func (w *reentrantWriter) Write(p []byte) (int, error) {
	w.r.Counter("reentrant_total").Inc()
	w.r.Gauge("reentrant_depth").Set(int64(w.n))
	w.n++
	return len(p), nil
}

func TestScrapeHoldsNoLockWhileWriting(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(9)
	r.WriteText(&reentrantWriter{r: r})
}

func TestConcurrentSlowScrape(t *testing.T) {
	r := NewRegistry()
	p := r.Pipeline("pipeline")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // hot-path writers keep mutating while scrapes run
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p.Events.Inc()
			p.ObserveQueueDepth(i%4, int64(i%17))
			p.StageWorkerNs.Observe(int64(i % 1000))
		}
	}()
	var scrapes sync.WaitGroup
	for i := 0; i < 8; i++ {
		scrapes.Add(1)
		go func() {
			defer scrapes.Done()
			for j := 0; j < 20; j++ {
				w := httptest.NewRecorder()
				r.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
				if w.Body.Len() == 0 {
					t.Error("empty scrape")
					return
				}
				_, _ = io.Copy(io.Discard, w.Body)
				time.Sleep(time.Millisecond)
			}
		}()
	}
	scrapes.Wait()
	close(stop)
	wg.Wait()
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("events_total").Add(7)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat_ns").Observe(50)
	snap := r.Snapshot()
	if snap["events_total"] != 7 || snap["depth"] != -2 {
		t.Fatalf("snapshot values wrong: %v", snap)
	}
	if snap["lat_ns_count"] != 1 || snap["lat_ns_sum"] != 50 {
		t.Fatalf("snapshot histogram entries wrong: %v", snap)
	}
	for _, k := range []string{"lat_ns_p50", "lat_ns_p90", "lat_ns_p99"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("snapshot missing %s", k)
		}
	}
	// Snapshot must not contain or disturb scrape-rate state.
	if _, ok := snap["events_per_sec"]; ok {
		t.Error("snapshot should not compute rate entries")
	}
}

func TestRegistryRemove(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("doomed_total")
	c.Add(9)
	r.Gauge("doomed_depth").Set(4)
	r.Histogram("doomed_ms").Observe(5)
	r.Counter("survivor_total").Add(1)

	r.Remove("doomed_total", "doomed_depth", "doomed_ms", "never_registered")
	snap := r.Snapshot()
	for name := range snap {
		if strings.HasPrefix(name, "doomed") {
			t.Fatalf("removed metric %s still in snapshot", name)
		}
	}
	if _, ok := snap["survivor_total"]; !ok {
		t.Fatal("Remove took out an unrelated metric")
	}

	// A held handle stays safe after removal — it just no longer scrapes.
	c.Inc()
	if c.Load() != 10 {
		t.Fatalf("held handle count = %d, want 10", c.Load())
	}
	// Re-registering the name starts a fresh series from zero.
	if got := r.Counter("doomed_total").Load(); got != 0 {
		t.Fatalf("re-registered counter starts at %d, want 0", got)
	}
}
