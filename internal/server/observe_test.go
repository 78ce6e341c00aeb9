package server

// Coverage for the HTTP observability surface: the /metrics catalogue and
// its counter-and-gauge shape, the retired /debug/timeline, and /debug/pprof
// (whose trace route is the timeline).

import (
	"bufio"
	"context"
	"net"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ddprof/internal/core"
	"ddprof/internal/interp"
	"ddprof/internal/telemetry"
	"ddprof/internal/vm"
)

// TestTimelineEndpoint: the daemon's timeline is Go's execution trace,
// served by the shared debug mux.
func TestTimelineEndpoint(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/trace?seconds=0.01", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "go 1.") {
		t.Fatalf("/debug/pprof/trace: status %d, %d bytes, want a Go execution trace", rec.Code, rec.Body.Len())
	}
}

// TestTimelineDisabled: the metric-sampling timeline is gone; its route
// answers 404.
func TestTimelineDisabled(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	defer srv.Shutdown(context.Background())
	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/timeline", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/timeline: status = %d, want 404", rec.Code)
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
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
// pipeline group as soon as the server exists (the group is interned at
// construction), as counters and gauges only: no stage-latency quantile
// lines.
func TestMetricsHistogramQuantiles(t *testing.T) {
	srv := New(Config{Registry: telemetry.NewRegistry()})
	defer srv.Shutdown(context.Background())

	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"pipeline_events_total 0\n",
		"pipeline_store_bytes 0\n",
		"server_sessions_active 0\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		name := strings.Fields(line)[0]
		if strings.Contains(name, "_stage_") || strings.HasSuffix(name, "_count") ||
			strings.HasSuffix(name, "_p50") || strings.HasSuffix(name, "_p99") {
			t.Errorf("/metrics carries a quantile line: %q", line)
		}
	}
}

// TestMetricsCatalogue: after one remote session and one in-process
// ModeParallel run, the series names on /metrics are exactly those README's
// Observability section lists: none undocumented, none documented and never
// registered. A `<base>_per_sec` line is derived from a `<base>_total`
// counter, and the per-worker gauges are listed once, as worker="N".
func TestMetricsCatalogue(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := New(Config{Registry: reg})
	client, conn := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.handleConn(conn)
	}()
	_, err := ProfileRemote(client, testProgram("catalogue", 300), ClientOptions{})
	client.Close()
	<-done
	if err != nil {
		t.Fatalf("remote session: %v", err)
	}
	p := testProgram("catalogue-local", 300)
	prof, err := core.New(core.Config{Mode: core.ModeParallel, Workers: 2, Backend: "perfect",
		Meta: p.Meta, Metrics: reg.Pipeline("pipeline")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vm.Run(p, prof, interp.Options{}); err != nil {
		t.Fatal(err)
	}
	prof.Flush()
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	rec := httptest.NewRecorder()
	srv.HTTPHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	worker := regexp.MustCompile(`\{worker="\d+"\}`)
	scraped := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		scraped[worker.ReplaceAllString(strings.Fields(line)[0], `{worker="N"}`)] = true
	}
	for name := range scraped {
		if base, ok := strings.CutSuffix(name, "_per_sec"); ok {
			if !scraped[base+"_total"] {
				t.Errorf("/metrics: %s has no %s_total counter", name, base)
			}
			delete(scraped, name)
		}
	}
	documented := readmeCatalogue(t)
	for name := range scraped {
		if !documented[name] {
			t.Errorf("/metrics series %s is not in README's Observability catalogue", name)
		}
	}
	for name := range documented {
		if !scraped[name] {
			t.Errorf("README catalogues %s, which /metrics does not serve", name)
		}
	}
	if t.Failed() {
		names := make([]string, 0, len(scraped))
		for n := range scraped {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Logf("served: %s", strings.Join(names, " "))
	}
}

// readmeCatalogue returns the first word of every line of the fenced block
// in README.md's "## Observability" section: the documented series names.
func readmeCatalogue(t *testing.T) map[string]bool {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]bool{}
	section, fenced := false, false
	for sc := bufio.NewScanner(f); sc.Scan(); {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			section = line == "## Observability"
		case section && strings.HasPrefix(line, "```"):
			fenced = !fenced
		case section && fenced && strings.TrimSpace(line) != "":
			names[strings.Fields(line)[0]] = true
		}
	}
	if len(names) == 0 {
		t.Fatal("README.md has no series catalogue under ## Observability")
	}
	return names
}
