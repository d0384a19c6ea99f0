package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call it makes. Spans of one operation share op; parent
// indexes the span that caused this one (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since the tracer started
	parent     int
	op         int64
}

// tracer keeps spans in memory; they are written out when the run
// ends. A nil or disabled tracer records nothing and costs one branch.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil || !t.on {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, op: op})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	if i < 0 {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	d := now - t.spans[i].start
	t.mu.Unlock()
	return d
}

// do runs f inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, op int64, f func()) time.Duration {
	if t == nil || !t.on {
		s := time.Now()
		f()
		return time.Since(s)
	}
	i := t.begin(name, parent, op)
	f()
	return t.end(i)
}

// layerOf maps a span name such as "program.lower" to its layer.
func layerOf(name string) string {
	if l, _, ok := strings.Cut(name, "."); ok {
		return l
	}
	return name
}

// selfTimes returns each layer's self time: its spans' durations minus
// the parts their child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.end < 0 {
			continue
		}
		out[layerOf(s.name)] += s.end - s.start - child[i]
	}
	return out
}

// printSelfTimes writes the per-layer self-time table of the spans
// recorded between two selfTimes snapshots.
func printSelfTimes(title string, before, after map[string]time.Duration) {
	st := map[string]time.Duration{}
	var total time.Duration
	for l, d := range after {
		if d -= before[l]; d > 0 {
			st[l] = d
			total += d
		}
	}
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(a, b int) bool { return st[layers[a]] > st[layers[b]] })
	fmt.Printf("self time by layer (%s)\n", title)
	for _, l := range layers {
		fmt.Printf("  %-10s %10.3f ms %6.2f%%\n", l, toMS(st[l]), 100*float64(st[l])/float64(max(total, 1)))
	}
}

// writeChrome writes the spans as a Chrome trace, one lane per layer.
func writeChrome(path string, spans []span) error {
	ts := make([]trace.Span, 0, len(spans))
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		ts = append(ts, trace.Span{Lane: layerOf(s.name), Name: fmt.Sprintf("%s op%d", s.name, s.op),
			Start: sim.Time(s.start), End: sim.Time(s.end)})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := trace.WriteChrome(w, ts); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
