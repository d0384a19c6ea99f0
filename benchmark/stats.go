package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// rank returns the 1-based nearest-rank position of percentile p in n
// sorted samples.
func rank(p float64, n int) int {
	// The epsilon keeps float rounding (99.9*n/100 landing just above an
	// integer) from moving the rank.
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile returns the highest percentile of the ladder with at
// least ten samples beyond it among n samples, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if n-rank(p, n) >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of the samples
// (sorted in place).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	return xs[rank(p, len(xs))-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method): it returns q1, the median and q3.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), median(s), q(3)
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func toUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setLatency reports the median and the tailPct percentile of a
// latency sample, which must have at least ten samples beyond it.
func setLatency(ms *metrics, o *outcome, prefix string, lat []float64, tailPct float64) {
	o.check(tailPercentile(len(lat)) >= tailPct, "%sp%g needs at least ten samples beyond it; %d samples allow p%g",
		prefix, tailPct, len(lat), tailPercentile(len(lat)))
	ms.set(prefix+"p50_ms", "ms", percentile(lat, 50))
	ms.set(prefix+"tail_ms", "ms", percentile(lat, tailPct))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// roundRate is the median over rounds of work per second, where every
// round does perRound units of the same mix: a burst of host noise
// moves one round, not the result.
func roundRate(times []time.Duration, perRound int) float64 {
	rates := make([]float64, len(times))
	for i, d := range times {
		rates[i] = float64(perRound) / d.Seconds()
	}
	if len(rates) <= 24 {
		fmt.Printf("rate by round (1/s): %.4g\n", rates)
	}
	return median(rates)
}
