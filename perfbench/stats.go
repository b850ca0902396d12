package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is
// not modified. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeIt runs f and returns how long it took.
func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// window is one slice of a timed phase: the ops that completed in it,
// how many of them passed their checks, and their latencies.
type window struct {
	width time.Duration
	ok    int
	lat   []float64 // ms
}

// minWindowSamples is the fewest latencies a window needs for its p99
// to keep ten samples above it.
const minWindowSamples = 1000

// summarize sets ops_per_s, p50_ms and p99_ms to medians over
// windows, so a burst of outside interference moves one window, not the
// run. Only windows with enough samples contribute a p99. The shape
// line records each window's rate as the run's noise band.
func summarize(o *outcome, ws []window) error {
	var rates, p50s, p99s []float64
	for _, w := range ws {
		rates = append(rates, float64(w.ok)/w.width.Seconds())
		p50s = append(p50s, quantile(w.lat, 0.5))
		if len(w.lat) >= minWindowSamples {
			p99s = append(p99s, quantile(w.lat, 0.99))
		}
	}
	if len(p99s) == 0 {
		return fmt.Errorf("no window has %d latency samples: p99 would have fewer than ten above it", minWindowSamples)
	}
	o.e2e["ops_per_s"] = median(rates)
	o.e2e["p50_ms"] = median(p50s)
	o.e2e["p99_ms"] = median(p99s)
	o.shape["window_rates"] = rates
	return nil
}
