package main

import (
	"fmt"

	"ddprof/internal/stats"
)

// pin is what the default seed must build and measure for one program:
// the jittered scale, the access count of one execution and — on the tight
// workload — the exact accuracy against the reference. A tree that moves any
// of them fails the run; other seeds are held to the reference interpreter's
// count and to the first profile of the same process.
type pin struct {
	scale                 float64
	events                uint64
	fp, fn, measured, ref int
}

var (
	reusePins = map[string]pin{
		"MG":     {scale: 2.9925, events: 1755348},
		"BT":     {scale: 2.8913, events: 2003245},
		"kmeans": {scale: 1.2593, events: 1945110},
	}
	pins = map[string]map[string]pin{
		"seq-serial":     reusePins,
		"seq-parallel":   reusePins,
		"remote-session": reusePins,
		"wide-tight": {
			"rgbyuv":    {scale: 2.5436, events: 1678793, fp: 142, fn: 24, measured: 210, ref: 92},
			"rotate":    {scale: 2.9910, events: 2058334, fp: 40, fn: 9, measured: 66, ref: 35},
			"bodytrack": {scale: 2.2164, events: 1055289, fp: 153, fn: 45, measured: 252, ref: 144},
		},
		"mt-threads": {
			"rgbyuv":  {scale: 1.4963, events: 987566},
			"rot-cc":  {scale: 1.9441, events: 1000379},
			"h264dec": {scale: 1.7127, events: 1007759},
		},
	}
)

func pinned(w workload, opt options) map[string]pin {
	if opt.seed != defaultSeed || opt.smoke {
		return nil
	}
	return pins[w.name]
}

// pinnedRates returns, per target, the accuracy the default seed pins on a
// tight workload; nil entries take the first profile's.
func pinnedRates(w workload, opt options, targets []*target) []*stats.Rates {
	want := make([]*stats.Rates, len(targets))
	if !w.tight {
		return want
	}
	for i, t := range targets {
		if p, ok := pinned(w, opt)[t.name]; ok {
			want[i] = &stats.Rates{FP: p.fp, FN: p.fn, Measured: p.measured, Truth: p.ref}
		}
	}
	return want
}

// checkPins holds what set-up built to the default seed's pins.
func checkPins(w workload, opt options, targets []*target) error {
	for _, t := range targets {
		p, ok := pinned(w, opt)[t.name]
		if !ok {
			continue
		}
		if t.scale != p.scale || t.events != p.events {
			return fmt.Errorf("%s/%s: seed %d built scale %.4f with %d events; pinned %.4f with %d",
				w.name, t.name, opt.seed, t.scale, t.events, p.scale, p.events)
		}
	}
	return nil
}
