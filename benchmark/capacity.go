package main

// The capacity workload: the paper's capacity questions on a Tesla
// K40c, answered one after another from one goroutine. "Going deeper"
// (Table 4) probes a new network shape at every step; "going wider"
// (Table 5) probes one shape at many batch sizes; dynamic runs re-bind
// one persistent runtime at every shape change. Nearly all host time
// is the simulator core, used three different ways.

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/liveness"
	"repro/internal/memmgr"
	"repro/internal/nnet"
	"repro/internal/policy"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/utp"
	"repro/internal/workload"
)

var device = hw.TeslaK40c

// capAnswer is the simulated output of one query.
type capAnswer struct {
	N3       int                 `json:"n3,omitempty"`
	Depth    int                 `json:"depth,omitempty"`
	Batch    int                 `json:"batch,omitempty"`
	Adaptive *core.DynamicResult `json:"adaptive,omitempty"`
	Static   *core.DynamicResult `json:"static,omitempty"`
}

// capOp is one executed query.
type capOp struct {
	q   capQuery
	ans capAnswer
	err error
	lat time.Duration
	// Dynamic queries time both plans on the same schedule.
	adaptiveT, staticT time.Duration
}

func framework(name string) (policy.Framework, error) {
	if name == policy.VDNN.Name {
		return policy.VDNN, nil
	}
	f, ok := policy.ByName(name)
	if !ok {
		return f, fmt.Errorf("unknown framework %q", name)
	}
	return f, nil
}

func dynConfig(sp capSpec, s workload.Schedule, adaptive bool) core.Config {
	return core.Config{
		Device:           device,
		HostLink:         hw.PCIePinned,
		UseMemPool:       true,
		Liveness:         true,
		DynamicWorkspace: true,
		PoolBytes:        int64(sp.dynPoolMiB) * hw.MiB,
		BatchSchedule:    s,
		AdaptivePlan:     adaptive,
	}
}

// probeNet builds the network a search probes at size x: n3 for
// deeper, the batch for wider.
func probeNet(q capQuery, x int) *nnet.Net {
	if q.Kind == "deeper" {
		return nnet.ResNetTable4(q.Batch, x)
	}
	return nnet.ByName(q.Network)(x)
}

// execQuery answers one query, with a span around each layer call.
func execQuery(sp capSpec, q capQuery, tr *tracer, op int64) capOp {
	r := capOp{q: q}
	t0 := threadCPU()
	switch q.Kind {
	case "deeper", "wider":
		f, err := framework(q.Framework)
		if err != nil {
			r.err = err
			break
		}
		if q.Kind == "deeper" {
			tr.do("policy.max_depth", -1, op, func() {
				r.ans.N3, r.ans.Depth, r.err = policy.MaxDepth(f, device, q.Batch, q.Limit)
			})
		} else {
			tr.do("policy.max_batch", -1, op, func() {
				r.ans.Batch, r.err = policy.MaxBatch(f, nnet.ByName(q.Network), device, q.Limit)
			})
		}
	case "dynamic":
		build := nnet.ByName(q.Network)
		r.adaptiveT = tr.do("core.run_dynamic", -1, op, func() {
			r.ans.Adaptive, r.err = core.RunDynamic(build, dynConfig(sp, q.Schedule, true))
		})
		if r.err == nil {
			r.staticT = tr.do("core.run_dynamic", -1, op, func() {
				r.ans.Static, r.err = core.RunDynamic(build, dynConfig(sp, q.Schedule, false))
			})
		}
	default:
		r.err = fmt.Errorf("unknown query kind %q", q.Kind)
	}
	r.lat = threadCPU() - t0
	return r
}

// capLog is what a timed pass produced.
type capLog struct {
	ops     []capOp
	elapsed time.Duration
	rounds  int
	// roundTimes holds the thread CPU time of each whole round.
	roundTimes []time.Duration
}

// capPass runs rounds of queries until dur has passed and at least
// minRounds rounds are done. With wholeRounds, only whole rounds run,
// so every run measures the same mix of query costs. If st is not nil,
// its set-up repetitions are spread between the rounds, outside both
// the rounds' times and dur.
func capPass(sp capSpec, rounds [][]capQuery, dur time.Duration, minRounds int, wholeRounds bool, tr *tracer, st *setupTimer) capLog {
	var lg capLog
	start := time.Now()
	var spent0 time.Duration
	if st != nil {
		spent0 = st.spent
	}
	measured := func() time.Duration {
		if st == nil {
			return time.Since(start)
		}
		return time.Since(start) - (st.spent - spent0)
	}
	op := int64(0)
	for ri := 0; ; ri++ {
		if st != nil {
			st.upTo(float64(measured()) / float64(dur))
		}
		if ri >= minRounds && measured() >= dur {
			break
		}
		round := rounds[ri%len(rounds)]
		roundStart := threadCPU()
		for qi, q := range round {
			if !wholeRounds && ri >= minRounds && measured() >= dur {
				break
			}
			op++
			lg.ops = append(lg.ops, execQuery(sp, q, tr, op))
			if qi == len(round)-1 {
				lg.roundTimes = append(lg.roundTimes, threadCPU()-roundStart)
			}
		}
		lg.rounds++
	}
	lg.elapsed = measured()
	return lg
}

// capOracle checks answers outside the timed window, memoised per
// distinct query: a search's answer trains and answer+1 runs out of
// memory or is past the limit; a dynamic run's iteration accounting
// adds up; repeats of a query give the same answer.
type capOracle struct {
	sp    capSpec
	first map[string]capAnswer
	good  map[string]error
}

func newCapOracle(sp capSpec) *capOracle {
	return &capOracle{sp: sp, first: map[string]capAnswer{}, good: map[string]error{}}
}

func (c *capOracle) check(r capOp) error {
	if r.err != nil {
		return r.err
	}
	k := r.q.key()
	if prev, ok := c.first[k]; ok {
		if !reflect.DeepEqual(prev, r.ans) {
			return fmt.Errorf("%s: answer differs between repeats", k)
		}
		return c.good[k]
	}
	c.first[k] = r.ans
	err := c.verify(r)
	c.good[k] = err
	return err
}

func (c *capOracle) verify(r capOp) error {
	q := r.q
	switch q.Kind {
	case "deeper", "wider":
		x := r.ans.Batch
		if q.Kind == "deeper" {
			x = r.ans.N3
			if want := nnet.ResNetDepth(6, 32, x, 6); r.ans.Depth != want {
				return fmt.Errorf("%s: depth %d, want %d", q.key(), r.ans.Depth, want)
			}
		}
		if x < 1 {
			return fmt.Errorf("%s: nothing trains", q.key())
		}
		f, err := framework(q.Framework)
		if err != nil {
			return err
		}
		if ok, err := policy.Trainable(f, probeNet(q, x), device); err != nil || !ok {
			return fmt.Errorf("%s: answer %d does not train (%v)", q.key(), x, err)
		}
		if x < q.Limit {
			if ok, err := policy.Trainable(f, probeNet(q, x+1), device); err != nil || ok {
				return fmt.Errorf("%s: answer+1 = %d trains (%v)", q.key(), x+1, err)
			}
		}
	case "dynamic":
		if err := checkDynamic(r.ans.Adaptive, q.Schedule, true); err != nil {
			return fmt.Errorf("%s adaptive: %w", q.key(), err)
		}
		if err := checkDynamic(r.ans.Static, q.Schedule, false); err != nil {
			return fmt.Errorf("%s static: %w", q.key(), err)
		}
	}
	return nil
}

// checkDynamic verifies that a dynamic run's iteration accounting adds
// up.
func checkDynamic(d *core.DynamicResult, s workload.Schedule, adaptive bool) error {
	if d == nil {
		return errors.New("no result")
	}
	if len(d.Iters) != len(s) {
		return fmt.Errorf("%d iterations for a %d-entry schedule", len(d.Iters), len(s))
	}
	var images int64
	var stall, iterSum time.Duration
	ooms, replanned := 0, 0
	for i, it := range d.Iters {
		if it.Index != i || it.Batch != s[i] {
			return fmt.Errorf("iteration %d ran index %d batch %d, want batch %d", i, it.Index, it.Batch, s[i])
		}
		if it.OOM {
			ooms++
		} else {
			images += int64(it.Batch)
		}
		if it.Replanned {
			replanned++
		}
		stall += time.Duration(it.StallTime)
		iterSum += time.Duration(it.IterTime)
	}
	switch {
	case ooms != d.OOMFailures:
		return fmt.Errorf("%d OOM iterations, result says %d", ooms, d.OOMFailures)
	case images != d.Images:
		return fmt.Errorf("%d images trained, result says %d", images, d.Images)
	case stall != time.Duration(d.TotalStall):
		return fmt.Errorf("stalls sum to %v, result says %v", stall, time.Duration(d.TotalStall))
	case iterSum > time.Duration(d.TotalTime):
		return fmt.Errorf("iterations take %v, more than the run's %v", iterSum, time.Duration(d.TotalTime))
	case d.TotalTime > 0 && d.Throughput != float64(d.Images)/d.TotalTime.Seconds():
		return fmt.Errorf("throughput %v does not match images over time", d.Throughput)
	case adaptive != d.Adaptive:
		return fmt.Errorf("adaptive flag %v, want %v", d.Adaptive, adaptive)
	case !adaptive && (d.Replans != 0 || replanned != 0):
		return fmt.Errorf("frozen plan replanned %d times", d.Replans)
	case adaptive && replanned > d.Replans:
		return fmt.Errorf("%d replanned iterations but %d replans", replanned, d.Replans)
	}
	return nil
}

// capSetup generates the query list and makes one cold probe of each
// kind. The probes have the same shapes under every seed, so set-up
// does the same work whatever the seed: a deeper probe at half the
// depth limit, a wider probe of the first framework and network at
// batch 64, and an adaptive dynamic run ramping over every batch size.
func capSetup(sp capSpec, seed uint64) ([][]capQuery, error) {
	rounds := genCapacity(sp, seed)
	deeper := capQuery{Kind: "deeper", Batch: sp.deeperBatch[0]}
	wider := capQuery{Kind: "wider", Network: sp.widerNets[0]}
	for _, p := range []struct {
		q  capQuery
		fw string
		x  int
	}{{deeper, sp.deeperFW, sp.maxN3 / 2}, {wider, sp.widerFW[0], 64}} {
		f, err := framework(p.fw)
		if err != nil {
			return nil, err
		}
		if _, err := policy.Trainable(f, probeNet(p.q, p.x), device); err != nil {
			return nil, err
		}
	}
	bs := append([]int(nil), sp.dynBatches...)
	sort.Ints(bs)
	ramp := workload.Ramp(bs[0], bs[len(bs)-1], sp.dynLen)
	if _, err := core.RunDynamic(nnet.ByName(sp.dynNet), dynConfig(sp, ramp, true)); err != nil {
		return nil, err
	}
	return rounds, nil
}

func runCapacity(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.cap
	var rounds [][]capQuery
	st := &setupTimer{reps: sp.setupReps, setup: func() (err error) {
		rounds, err = capSetup(sp, e.seed)
		return err
	}}
	st.once()
	if st.err != nil {
		return st.err
	}
	lg := capPass(sp, rounds, seconds(e.seconds), sp.digestRounds, true, nil, st)
	setup, err := st.median()
	if err != nil {
		return err
	}
	capCheck(sp, lg, o)

	ms.set("setup_s", "s", setup)
	ms.set("rate_per_s", "1/s", roundRate(lg.roundTimes, len(rounds[0])))
	share := map[string]time.Duration{}
	var total time.Duration
	for _, r := range lg.ops {
		share[r.q.Kind] += r.lat
		total += r.lat
	}
	fmt.Printf("capacity: %d searches in %d rounds over %.2fs; CPU time shares deeper %.0f%% wider %.0f%% dynamic %.0f%%\n",
		len(lg.ops), lg.rounds, lg.elapsed.Seconds(), 100*share["deeper"].Seconds()/total.Seconds(),
		100*share["wider"].Seconds()/total.Seconds(), 100*share["dynamic"].Seconds()/total.Seconds())
	return nil
}

// capCheck runs the oracle over a pass and fills the digest from the
// first digest_rounds rounds, which every run completes.
func capCheck(sp capSpec, lg capLog, o *outcome) {
	or := newCapOracle(sp)
	for _, r := range lg.ops {
		err := or.check(r)
		o.op(err == nil)
		o.check(err == nil, "%v", err)
	}
	n := sp.digestRounds * sp.perRound()
	var answers []capAnswer
	for i := 0; i < n && i < len(lg.ops); i++ {
		answers = append(answers, lg.ops[i].ans)
	}
	o.digest = digestOf(answers)
}

// ---- traced pass ----

// stageSplit times one probe's stages from outside: build, lower, the
// three planners, bind, and a full core.Run. Iterate is run - lower -
// bind. runUntraced is core.Run timed with tracing off. All are CPU
// times of the calling thread.
type stageSplit struct {
	build, lower, live, recomp, utpT, bind, run, runUntraced time.Duration
	steps, simSteps                                          int
	gpuOps                                                   int64
	hits, misses                                             int64
}

func (s stageSplit) iterate() time.Duration { return s.run - s.lower - s.bind }

// splitProbe measures a probe reps times, alternating traced and
// untraced runs, and keeps each stage's median.
func splitProbe(q capQuery, x, reps int, tr *tracer, op int64) (stageSplit, error) {
	f, err := framework(q.Framework)
	if err != nil {
		return stageSplit{}, err
	}
	// The configuration the framework trains under: its first one that
	// fits the answer (TensorFlow falls back to swapping).
	cfg := f.Config(device)
	for _, c := range f.Configs(device) {
		if _, err := core.Run(probeNet(q, x), c); err == nil {
			cfg = c
			break
		}
	}
	mgr, ok := memmgr.Lookup(cfg.Manager)
	if !ok {
		return stageSplit{}, fmt.Errorf("unknown manager %q", cfg.Manager)
	}
	norm := mgr.Normalize(cfg).WithDefaults()
	var all [8][]float64
	var out stageSplit
	// untraced times core.Run alone; the network is built first, outside
	// the timer, as the traced rows time the build on its own.
	untraced := func() time.Duration {
		net := probeNet(q, x)
		runtime.GC()
		t := threadCPU()
		_, _ = core.Run(net, cfg)
		return threadCPU() - t
	}
	for i := 0; i < reps; i++ {
		// Alternate which run goes first, so neither always meets the
		// other's garbage.
		var d [8]time.Duration
		if i%2 == 0 {
			d[7] = untraced()
		}
		runtime.GC()
		root := tr.begin("probe", -1, op)
		var net *nnet.Net
		var p *program.Program
		var rp *recompute.Plan
		var res *core.Result
		var runErr error
		// Each stage is a span, timed by the thread's CPU clock like the
		// untraced run it is compared with.
		stage := func(name string, f func()) time.Duration {
			t := threadCPU()
			tr.do(name, root, op, f)
			return threadCPU() - t
		}
		d[0] = stage("nnet.build", func() { net = probeNet(q, x) })
		d[1] = stage("program.lower", func() { p = program.BuildWith(net, program.Options{InPlaceAct: norm.InPlaceAct}) })
		d[2] = stage("liveness.analyze", func() { liveness.Analyze(p) })
		d[3] = stage("recompute.plan", func() { rp = recompute.BuildPlan(p, norm.Recompute) })
		d[4] = stage("utp.plan", func() { utp.BuildPlan(p, norm.Offload, rp) })
		// Bind gets a program of its own, lowered outside every span,
		// as core.Run binds a freshly lowered one.
		bound := program.BuildWith(net, program.Options{InPlaceAct: norm.InPlaceAct})
		d[5] = stage("memmgr.bind", func() { memmgr.NewRuntime(bound, norm) })
		// core.Run starts from a collected heap, as the untraced one
		// does, not from the stages' garbage.
		runtime.GC()
		d[6] = stage("core.run", func() { res, runErr = core.Run(net, cfg) })
		tr.end(root)
		if i%2 == 1 {
			d[7] = untraced()
		}
		for k := range d {
			all[k] = append(all[k], float64(d[k]))
		}
		out.steps = len(p.Steps)
		out.simSteps = len(p.Steps) * norm.Iterations
		if runErr == nil {
			out.gpuOps = res.AllocCalls + res.FreeCalls
			out.hits, out.misses = res.CacheHits, res.CacheMisses
		} else if !errors.Is(runErr, core.ErrOutOfMemory) {
			return out, runErr
		}
	}
	md := func(k int) time.Duration { return time.Duration(median(all[k])) }
	out.build, out.lower, out.live, out.recomp, out.utpT = md(0), md(1), md(2), md(3), md(4)
	out.bind, out.run, out.runUntraced = md(5), md(6), md(7)
	return out, nil
}

// tracedCapacity runs the capacity pass untraced and traced for half
// the budget each, then splits the answer and answer+1 probes of every
// search the traced half ran into stages.
func tracedCapacity(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.cap
	rounds, err := capSetup(sp, e.seed)
	if err != nil {
		return err
	}
	half := seconds(e.seconds / 2)
	rt := startRuntimeStats()
	plain := capPass(sp, rounds, half, 0, false, nil, nil)
	rt.stop()
	e.tr.on = true
	traced := capPass(sp, rounds, half, 0, false, e.tr, nil)
	e.tr.on = false
	capCheck(sp, traced, o)
	rt.report(ms, "capacity")
	ms.set("trace.overhead.capacity", "ratio", roundRate(plain.roundTimes, len(rounds[0]))/roundRate(traced.roundTimes, len(rounds[0])))

	var depth, batch, dyn, ratio []float64
	for _, r := range traced.ops {
		switch r.q.Kind {
		case "deeper":
			depth = append(depth, toMS(r.lat))
		case "wider":
			batch = append(batch, toMS(r.lat))
		case "dynamic":
			dyn = append(dyn, toMS(r.adaptiveT), toMS(r.staticT))
			ratio = append(ratio, float64(r.adaptiveT)/float64(r.staticT))
		}
	}
	ms.set("policy.max_depth_ms", "ms", median(depth))
	ms.set("policy.max_batch_ms", "ms", median(batch))
	ms.set("core.run_dynamic_ms", "ms", median(dyn))
	ms.set("memmgr.adaptive_over_static", "ratio", median(ratio))

	// Stage split of each distinct search's answer and answer+1 probes.
	e.tr.on = true
	var tot stageSplit
	probes := 0
	seen := map[string]bool{}
	byKind := map[string]*stageSplit{}
	kindProbes := map[string]int{}
	for i, r := range traced.ops {
		if r.err != nil || r.q.Kind == "dynamic" || seen[r.q.key()] {
			continue
		}
		seen[r.q.key()] = true
		x := r.ans.Batch
		if r.q.Kind == "deeper" {
			x = r.ans.N3
		}
		for _, px := range []int{x, x + 1} {
			s, err := splitProbe(r.q, px, 8, e.tr, int64(i))
			if err != nil {
				e.tr.on = false
				return err
			}
			k := byKind[r.q.Kind]
			if k == nil {
				k = &stageSplit{}
				byKind[r.q.Kind] = k
			}
			kindProbes[r.q.Kind]++
			for _, acc := range []*stageSplit{&tot, k} {
				acc.build += s.build
				acc.lower += s.lower
				acc.live += s.live
				acc.recomp += s.recomp
				acc.utpT += s.utpT
				acc.bind += s.bind
				acc.run += s.run
				acc.runUntraced += s.runUntraced
				acc.steps += s.steps
				acc.simSteps += s.simSteps
				acc.gpuOps += s.gpuOps
				acc.hits += s.hits
				acc.misses += s.misses
			}
			probes++
		}
	}
	e.tr.on = false
	if probes == 0 {
		return errors.New("capacity: the traced pass ran no search to split")
	}
	n := float64(probes)
	per := func(d time.Duration) float64 { return toMS(d) / n }
	ms.set("nnet.build_ms", "ms", per(tot.build))
	ms.set("program.lower_ms", "ms", per(tot.lower))
	ms.set("liveness.analyze_ms", "ms", per(tot.live))
	ms.set("recompute.plan_ms", "ms", per(tot.recomp))
	ms.set("utp.plan_ms", "ms", per(tot.utpT))
	ms.set("memmgr.bind_ms", "ms", per(tot.bind))
	ms.set("core.run_ms", "ms", per(tot.run))
	ms.set("core.iterate_ms", "ms", per(tot.iterate()))
	// lower + bind + iterate is the traced core.Run by construction, so
	// the stage rows sum to the untraced core.Run exactly as closely as
	// the traced run matches the untraced one. The standalone lower and
	// bind timings are independent of both and should leave iterate a
	// share of the untraced run. Both are timings, not outputs of the
	// program, so a host that slows down between runs earns a warning
	// beside the reported ratio, never an incorrect result.
	tracedRatio := float64(tot.run) / float64(tot.runUntraced)
	ms.set("core.traced_over_untraced_run", "ratio", tracedRatio)
	if tracedRatio <= 0.9 || tracedRatio >= 1.1 {
		fmt.Printf("WARNING: capacity stage split: traced core.Run is %.3f of the untraced one, outside 0.9-1.1\n", tracedRatio)
	}
	if tot.lower+tot.bind >= tot.runUntraced {
		fmt.Printf("WARNING: capacity stage split: standalone lower %v + bind %v reach the untraced core.Run %v\n",
			tot.lower, tot.bind, tot.runUntraced)
	}
	ms.set("program.steps", "count", float64(tot.steps)/n)
	ms.set("core.sim_steps_per_s", "1/s", float64(tot.simSteps)/tot.iterate().Seconds())
	ms.set("gpumem.ops", "count", float64(tot.gpuOps)/n)
	if tot.hits+tot.misses > 0 {
		ms.set("tcache.hit_ratio", "ratio", float64(tot.hits)/float64(tot.hits+tot.misses))
	} else {
		ms.set("tcache.hit_ratio", "ratio", 0)
	}
	fmt.Printf("capacity stage split per probe (ms): %-7s %8s %8s %8s %8s %8s %8s %8s %8s\n",
		"kind", "build", "lower", "live", "recomp", "utp", "bind", "iterate", "run")
	for _, kind := range []string{"deeper", "wider"} {
		k := byKind[kind]
		if k == nil {
			continue
		}
		c := float64(kindProbes[kind])
		pk := func(d time.Duration) float64 { return toMS(d) / c }
		fmt.Printf("  %-7s %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f\n", kind,
			pk(k.build), pk(k.lower), pk(k.live), pk(k.recomp), pk(k.utpT), pk(k.bind), pk(k.iterate()), pk(k.run))
	}
	return nil
}
