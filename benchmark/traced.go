package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// runtimeStats measures the Go runtime's allocation and GC work over a
// window.
type runtimeStats struct {
	before, after runtime.MemStats
}

func startRuntimeStats() *runtimeStats {
	r := &runtimeStats{}
	runtime.ReadMemStats(&r.before)
	return r
}

func (r *runtimeStats) stop() { runtime.ReadMemStats(&r.after) }

func (r *runtimeStats) report(ms *metrics, workload string) {
	ms.set("runtime."+workload+".alloc_mb", "MB", float64(r.after.TotalAlloc-r.before.TotalAlloc)/(1<<20))
	ms.set("runtime."+workload+".gc_cycles", "count", float64(r.after.NumGC-r.before.NumGC))
	ms.set("runtime."+workload+".gc_pause_ms", "ms",
		float64(time.Duration(r.after.PauseTotalNs-r.before.PauseTotalNs))/float64(time.Millisecond))
}

// runTraced is the traced run: every workload's layers, each given the
// run's seconds, split between an untraced and a traced pass whose
// rates give the tracing overhead. The per-layer table covers all
// layers whichever workload is named; the spans go to a Chrome trace
// file under the work directory.
func runTraced(sp *specs, seed uint64, secs float64, runDir, workDir, name string, ms *metrics, o *outcome) error {
	tr := &tracer{t0: time.Now()}
	parts := []struct {
		name string
		f    workloadFunc
	}{{"capacity", tracedCapacity}, {"cluster", tracedCluster}, {"serve", tracedServe}}
	var digests []string
	for _, p := range parts {
		e := &env{seed: seed, seconds: secs, workDir: runDir, specs: sp, tr: tr}
		po := &outcome{}
		before := selfTimes(tr.spans)
		if err := p.f(e, ms, po); err != nil {
			return fmt.Errorf("traced %s: %w", p.name, err)
		}
		printSelfTimes(p.name, before, selfTimes(tr.spans))
		o.attempted += po.attempted
		o.failed += po.failed
		o.problems = append(o.problems, po.problems...)
		digests = append(digests, p.name+"="+po.digest)
	}
	o.digest = fmt.Sprint(digests)
	path := filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := writeChrome(path, tr.spans); err != nil {
		return err
	}
	fmt.Printf("chrome trace of %d spans: %s\n", len(tr.spans), path)
	return nil
}
