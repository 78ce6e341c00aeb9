package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer: name, start, end and the span that
// caused it (-1 for a root). Times are offsets from the tracer's epoch.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration
}

// tracer records spans from the harness's own goroutine, in memory, and
// writes them out when the run ends. A nil tracer records nothing, so the
// same profiling code serves the untraced end-to-end runs and the traced
// per-layer run; the difference between the two is the tracing overhead.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// selfTimes sums, per span name, the self time of the spans recorded since
// index from: each span's duration minus the part of it its child spans
// cover. Spans come from one goroutine, so siblings never overlap and the
// covered part is the sum of the children.
func (t *tracer) selfTimes(from int) map[string]time.Duration {
	spans := t.spans[from:]
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= from {
			child[s.Parent-from] += s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - child[i]
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace JSON.
func (t *tracer) writeChrome(path string) error {
	evs := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = chromeEvent{
			Name: s.Name, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": i, "parent": s.Parent},
		}
	}
	data, err := json.Marshal(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
