package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// sample is one completed operation: when it finished, relative to the start
// of the load, and how long it took, pauses excluded.
type sample struct {
	end time.Duration
	lat time.Duration
}

// percentile returns the q-quantile (0 < q < 1) of ascending xs by nearest
// rank. It refuses a percentile with fewer than minBeyond samples above it:
// the value would rest on a handful of outliers.
func percentile(xs []float64, q float64, minBeyond int) (float64, error) {
	n := len(xs)
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - idx - 1; n == 0 || beyond < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", q*100, minBeyond, n)
	}
	return xs[idx], nil
}

// median returns the median of xs (mean of the middle pair for even counts);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// latenciesMs returns the latencies of the samples that finished in
// [from, to), in milliseconds, ascending. With marks, each latency is scaled
// by the host's speed when it finished; with none, it is as measured.
func latenciesMs(ss []sample, from, to time.Duration, marks []mark) []float64 {
	var out []float64
	for _, s := range ss {
		if s.end >= from && s.end < to {
			out = append(out, float64(s.lat)/float64(time.Millisecond)*speedAt(marks, s.end))
		}
	}
	sort.Float64s(out)
	return out
}

// ratePerS is the median, over the stretches of load between two reference
// measurements within [from, to), of the samples finished per second of
// load, divided by the host's speed over the stretch. A median of stretches
// shrugs off a stall that a mean over the window would carry.
func ratePerS(ss []sample, from, to time.Duration, marks []mark) float64 {
	var rates []float64
	for i := 0; i+1 < len(marks); i++ {
		a, b := marks[i], marks[i+1]
		if a.to < from || b.from > to {
			continue
		}
		n := 0
		for _, s := range ss {
			if s.end >= a.to && s.end < b.from {
				n++
			}
		}
		rates = append(rates, float64(n)/(b.from-a.to).Seconds()/((a.speed+b.speed)/2))
	}
	return median(rates)
}

// within counts the samples finished in [from, to).
func within(ss []sample, from, to time.Duration) int {
	n := 0
	for _, s := range ss {
		if s.end >= from && s.end < to {
			n++
		}
	}
	return n
}
