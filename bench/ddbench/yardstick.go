package main

import "time"

// The reference box is a shared 2-vCPU VM whose speed moves between regimes
// lasting seconds to minutes (8.5 to 13.8 M events/s from one process in
// 240 s), which no estimator over a 12-30 s window averages out. Measuring the
// machine next to the profiler does: each timed interval is divided by how
// much slower than nominal a fixed piece of work that is not the profiler's
// ran just before and after it. bench/README.md, "The noise budget", has the
// measurements behind this.

// yardNominal is the yardstick's usual duration on the reference box (its
// median was 18.5-19.4 ms in every experiment). It only sets the scale of
// the normalised metrics — they read like raw ones there — and cancels out
// of any comparison between two trees on one machine.
const yardNominal = 19 * time.Millisecond

var yardTable [4096]uint64

// yardstick runs 2^21 steps of branchy integer work over an L1-resident
// table — the character of the VM's dispatch loop and the engine, none of
// their code — and returns how long that took.
func yardstick() time.Duration {
	const steps = 2 << 20
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	var acc uint64
	for i := 0; i < steps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 4095
		switch x >> 61 {
		case 0, 1:
			acc += yardTable[j]
		case 2:
			yardTable[j] = acc ^ x
		case 3:
			acc ^= x
		case 4, 5:
			acc -= yardTable[j] >> 3
		default:
			yardTable[j] += acc
		}
	}
	sink += int(acc & 1)
	return time.Since(t0)
}

// yardstick samples the machine's speed; a smoke run, which measures
// nothing, takes the nominal value for granted.
func (e *env) yardstick() time.Duration {
	if e.smoke {
		return yardNominal
	}
	return yardstick()
}

// machineSpeed turns yardstick samples taken around an interval into the
// factor by which the machine ran slower than nominal during it.
func machineSpeed(samples ...time.Duration) float64 {
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)) / float64(yardNominal)
}
