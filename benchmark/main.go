// Command snperf is the repository's end-to-end benchmark. It runs one
// seeded workload per process, times it with tracing off, checks every
// output it timed against an oracle, and prints one JSON result line.
// With -trace 1 it instead runs the traced pass over every layer and
// prints the per-layer table.
//
//	bash benchmark/run.sh <fixed args> -workload capacity -seed 1 -seconds 12 -trace 0
//
// The fixed arguments (query mix, trace sizes, offered rate, spacing,
// prefill size, ...) are recorded in BENCHMARK.json's command, so a
// workload changes only when that file does. -steady N runs the chosen
// workload N times in fresh processes and prints the spread of every
// end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps insertion order for the printed table.
type metrics struct {
	names []string
	m     map[string]metric
}

func newMetrics() *metrics { return &metrics{m: map[string]metric{}} }

func (ms *metrics) set(name, unit string, v float64) {
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// outcome is what a workload run reports besides its metrics.
type outcome struct {
	attempted int
	failed    int
	// problems lists failed correctness checks; any entry makes the
	// run incorrect.
	problems []string
	digest   string
}

func (o *outcome) check(ok bool, format string, args ...any) bool {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
	return ok
}

// op counts one timed operation and whether its output was correct.
func (o *outcome) op(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// env is everything a workload run receives.
type env struct {
	seed    uint64
	seconds float64
	workDir string
	specs   *specs
	tr      *tracer
}

type workloadFunc func(e *env, ms *metrics, o *outcome) error

var workloads = map[string]workloadFunc{
	"capacity": runCapacity,
	"cluster":  runCluster,
	"serve":    runServe,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: capacity, cluster or serve")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 12, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
		workDir = flag.String("work-dir", ".bench_build", "directory for the WAL, traces and other run files")
		steady  = flag.Int("steady", 0, "run the workload this many times in fresh processes and print the spread")
		digest  = flag.String("inputs-digest", "", "expected digest of the generated inputs at seed 0")
		sp      specs
	)
	sp.register(flag.CommandLine)
	flag.Parse()
	err := sp.check()
	if err == nil {
		err = run(*name, *seed, *seconds, *traced, *workDir, *steady, &sp, *digest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snperf:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced int, workDir string, steady int,
	sp *specs, wantDigest string) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (have capacity, cluster, serve)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	got, err := inputsDigest(sp)
	if err != nil {
		return err
	}
	if got != wantDigest {
		return fmt.Errorf("generated inputs digest %s does not match -inputs-digest %q: the workload tables changed, so BENCHMARK.json must change with them", got, wantDigest)
	}
	if steady > 0 {
		return runSteady(steady, name, seed)
	}
	// The CPU clocks the workloads read need the workload goroutine on
	// one thread.
	runtime.LockOSThread()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	ms := newMetrics()
	o := &outcome{}
	if traced != 0 {
		err = runTraced(sp, seed, seconds, runDir, workDir, name, ms, o)
	} else {
		e := &env{seed: seed, seconds: seconds, workDir: runDir, specs: sp, tr: &tracer{}}
		err = workloads[name](e, ms, o)
		if err == nil {
			var ru syscall.Rusage
			if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
				ms.set("peak_rss_mb", "MB", float64(ru.Maxrss)/1024)
			}
			ok := o.attempted - o.failed
			if o.attempted > 0 {
				ms.set("ok_ratio", "ratio", float64(ok)/float64(o.attempted))
			}
		}
	}
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return fmt.Errorf("%s attempted no operation", name)
	}
	for _, n := range ms.names {
		if v := ms.m[n].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v: the run measured too little", n, v)
		}
	}
	printTable(name, seed, ms, o)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(o.problems) == 0 && o.failed == 0, o.attempted, o.failed, ms.m}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// printTable writes the human-readable report that precedes the JSON
// line: the digest of simulated outputs, failed checks, and every
// metric by name and unit.
func printTable(name string, seed uint64, ms *metrics, o *outcome) {
	fmt.Printf("workload %s seed %d go %s nproc %d\n", name, seed, runtime.Version(), runtime.NumCPU())
	if o.digest != "" {
		fmt.Printf("digest %s seed=%d %s\n", name, seed, o.digest)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	w := 0
	for _, n := range ms.names {
		w = max(w, len(n))
	}
	for _, n := range ms.names {
		m := ms.m[n]
		fmt.Printf("  %-*s %14.6g %s\n", w, n, m.Value, m.Unit)
	}
}

// setupTimer measures a workload's set-up: the median CPU time of the
// calling thread over reps repetitions of its cold set-up work, each
// from fresh state. Only setup is timed. The batch workloads run the
// first repetition before their measured pass, which needs its result,
// and spread the rest over the pass, between rounds. Run back to back,
// the repetitions sampled about one second at the start of the process,
// and on the shared host the bounds were set on one process's set-up
// then read 40% slower than another's at the same rate.
type setupTimer struct {
	reps    int
	setup   func() error
	samples []float64
	spent   time.Duration // wall time the repetitions took
	err     error
}

// once times one repetition, unless one has failed.
func (st *setupTimer) once() {
	if st.err != nil {
		return
	}
	w := time.Now()
	runtime.GC()
	t := threadCPU()
	st.err = st.setup()
	st.samples = append(st.samples, (threadCPU() - t).Seconds())
	st.spent += time.Since(w)
}

// upTo runs repetitions until a share frac of them has run.
func (st *setupTimer) upTo(frac float64) {
	for st.err == nil && len(st.samples) < st.reps && float64(len(st.samples)) < frac*float64(st.reps) {
		st.once()
	}
}

// median runs the repetitions still due and returns their median.
func (st *setupTimer) median() (float64, error) {
	st.upTo(1)
	if st.err != nil {
		return 0, st.err
	}
	fmt.Printf("set-up repetitions (s): %.4f\n", st.samples)
	return median(st.samples), nil
}

// runSteady re-executes this binary n times with seeds seed..seed+n-1
// and prints, per end-to-end metric, the median, quartiles and the
// spread (quartile distance over the median), then the largest spread
// among the metrics whose spread a bound must hold.
func runSteady(n int, name string, seed uint64) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	for i := 1; i < len(os.Args); i++ {
		a := os.Args[i]
		if strings.HasPrefix(a, "-steady") || strings.HasPrefix(a, "--steady") ||
			strings.HasPrefix(a, "-seed") || strings.HasPrefix(a, "--seed") {
			if !strings.Contains(a, "=") {
				i++
			}
			continue
		}
		args = append(args, a)
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	digests := map[string]bool{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		out, err := runChild(self, append(args, "-seed", fmt.Sprint(s)))
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		var res struct {
			Correct bool              `json:"correct"`
			Metrics map[string]metric `json:"metrics"`
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		for _, l := range lines {
			if strings.HasPrefix(l, "digest ") {
				digests[l] = true
			}
		}
		fmt.Printf("seed %d correct=%v", s, res.Correct)
		ks := make([]string, 0, len(res.Metrics))
		for k := range res.Metrics {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		for _, k := range ks {
			m := res.Metrics[k]
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
			fmt.Printf(" %s=%.4g", k, m.Value)
		}
		fmt.Println()
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-14s %12s %12s %12s %8s\n", "metric", "q1", "median", "q3", "spread")
	widest, widestKey := 0.0, ""
	for _, k := range keys {
		q1, med, q3 := quartiles(vals[k])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		if k != "setup_s" && spread >= widest {
			widest, widestKey = spread, k
		}
		fmt.Printf("%-14s %12.6g %12.6g %12.6g %7.2f%% %s\n", k, q1, med, q3, 100*spread, units[k])
	}
	q1, med, q3 := quartiles(vals["setup_s"])
	fmt.Printf("largest spread besides setup_s: %s %.2f%%; setup_s spread %.2f%%\n", widestKey, 100*widest, 100*(q3-q1)/med)
	fmt.Printf("%d distinct digests over %d seeds of %s\n", len(digests), n, name)
	return nil
}

// runChild runs one fresh benchmark process and returns its stdout.
func runChild(self string, args []string) (string, error) {
	var sb strings.Builder
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &sb, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// statfsName names the filesystem holding dir, for the record.
func statfsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// digestOf hashes a simulated output for exact comparison across
// commits.
func digestOf(v any) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(v); err != nil {
		return "unencodable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
