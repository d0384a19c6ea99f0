package main

import (
	"math"
	"testing"
	"time"
)

// TestTailPercentile checks the tail rule: the highest percentile of
// the ladder with at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95},
		{999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", c.n, p, c.n-rank(p, c.n))
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000..1
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), which judges the benchmark's spread.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
		{[]float64{8, 1, 4, 2}, 1.25, 3, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(m-c.m) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "core.run", start: 0, end: 10 * time.Millisecond, parent: -1},
		{name: "program.lower", start: 2 * time.Millisecond, end: 5 * time.Millisecond, parent: 0},
		{name: "program.lower", start: 6 * time.Millisecond, end: 7 * time.Millisecond, parent: 0},
	}
	st := selfTimes(spans)
	if st["core"] != 6*time.Millisecond || st["program"] != 4*time.Millisecond {
		t.Fatalf("self times %v, want core 6ms program 4ms", st)
	}
}
