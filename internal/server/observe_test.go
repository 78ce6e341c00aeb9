package server

// Coverage for the flight-recorder endpoints: /debug/timeline, /debug/pprof,
// and the histogram quantiles on /metrics.

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ddprof/internal/telemetry"
)

func TestTimelineEndpoint(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg, SnapshotInterval: time.Hour, SnapshotSamples: 16})
	defer srv.Shutdown(context.Background())
	if srv.Snapshotter() == nil {
		t.Fatal("snapshotter not started by default")
	}
	reg.Counter("pipeline_events_total").Add(123)
	srv.Snapshotter().SampleNow()

	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/timeline status = %d", rec.Code)
	}
	var page struct {
		IntervalMs   float64 `json:"interval_ms"`
		TotalSamples uint64  `json:"total_samples"`
		Samples      []struct {
			TsMs float64            `json:"ts_ms"`
			Vals map[string]float64 `json:"vals"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("timeline is not valid JSON: %v", err)
	}
	if page.TotalSamples == 0 || len(page.Samples) == 0 {
		t.Fatalf("timeline empty: %+v", page)
	}
	last := page.Samples[len(page.Samples)-1]
	if last.Vals["pipeline_events_total"] != 123 {
		t.Errorf("timeline sample events_total = %v, want 123", last.Vals["pipeline_events_total"])
	}
}

func TestTimelineDisabled(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry(), SnapshotSamples: -1})
	defer srv.Shutdown(context.Background())
	if srv.Snapshotter() != nil {
		t.Fatal("snapshotter started despite SnapshotSamples < 0")
	}
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/timeline with recorder disabled: status = %d, want 404", rec.Code)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry(), SnapshotSamples: -1})
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/ status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
	rec = httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/goroutine?debug=1", nil))
	if rec.Code != 200 {
		t.Fatalf("goroutine profile status = %d", rec.Code)
	}
}

// TestMetricsHistogramQuantiles: the daemon's /metrics page carries the
// stage-latency quantile lines as soon as the pipeline group exists (the
// histograms are interned at server construction).
func TestMetricsHistogramQuantiles(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg, SnapshotSamples: -1})
	defer srv.Shutdown(context.Background())
	reg.Histogram("pipeline_stage_worker_ns").Observe(1500)

	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pipeline_stage_worker_ns_count 1",
		"pipeline_stage_worker_ns_p50 ",
		"pipeline_stage_worker_ns_p99 ",
		"pipeline_stage_merge_ns_count 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
