package main

// The cluster workload: repeated replays of seeded traces through the
// scheduler. Each round replays a gang trace on the 256-device default
// topology in one batch Run, streams the same trace through an
// Incremental replay (the serving layer's substrate), and replays a
// co-tenant trace of dynamic-batch
// jobs under cross-job planning. The dry-run estimates are filled in
// set-up, so the simulator core is idle while timed: a change to the
// core should show no gain here.

import (
	"errors"
	"fmt"
	"reflect"
	"time"

	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/workload"
)

type cluInputs struct {
	gang, co         []sched.Job
	gangC, coC, isoC sched.Cluster
	est              *sched.Estimator
	estimateMS       []float64
}

// cluSetup generates the traces and fills a fresh estimator with every
// distinct shape they hold: the dry-run cost a scheduler pays once.
func cluSetup(sp cluSpec, seed uint64) (*cluInputs, error) {
	in := &cluInputs{est: sched.NewEstimator()}
	gang, co := genCluster(sp, seed)
	in.gang, in.co = sched.JobsFromTrace(gang), sched.JobsFromTrace(co)
	var err error
	if in.gangC, err = sched.NewCluster(sched.Uniform(device, workload.GangClusterDevices), sched.WithTopology(hw.DefaultTopology())); err != nil {
		return nil, err
	}
	if in.coC, err = sched.NewCluster(sched.Uniform(device, workload.CoTenantClusterDevices), sched.WithCrossJob(0)); err != nil {
		return nil, err
	}
	if in.isoC, err = sched.NewCluster(sched.Uniform(device, workload.CoTenantClusterDevices)); err != nil {
		return nil, err
	}
	type shape struct {
		network, manager string
		batch            int
	}
	seen := map[shape]bool{}
	demands := map[shape]bool{}
	for ti, jobs := range [][]sched.Job{in.gang, in.co} {
		for _, j := range jobs {
			batches := []int{j.Batch}
			if len(j.BatchSchedule) > 0 {
				batches = workload.Schedule(j.BatchSchedule).Distinct()
			}
			for _, b := range batches {
				s := shape{j.Network, j.Manager, b}
				if !seen[s] {
					seen[s] = true
					t := time.Now()
					if _, err := in.est.Estimate(j.Network, b, j.Manager, device); err != nil {
						return nil, err
					}
					in.estimateMS = append(in.estimateMS, toMS(time.Since(t)))
				}
				// Cross-job admission asks for the tensor demands of
				// the co-tenant shapes.
				d := shape{j.Network, "", b}
				if ti == 1 && !demands[d] {
					demands[d] = true
					if _, err := in.est.TensorDemands(j.Network, b); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return in, nil
}

// cluRound is one round's outputs.
type cluRound struct {
	gang, inc, co *sched.Result
	gangT, incT   time.Duration
	coT           time.Duration
}

// cluRoundRun replays the three traces once.
func cluRoundRun(in *cluInputs, tr *tracer, op int64) (cluRound, error) {
	var r cluRound
	sg, err := sched.NewSchedulerWithEstimator(in.gangC, sched.TopoPacking, in.est)
	if err != nil {
		return r, err
	}
	r.gangT = tr.do("sched.run_gang", -1, op, func() { r.gang, err = sg.Run(in.gang) })
	if err != nil {
		return r, err
	}

	t0 := time.Now()
	root := tr.begin("sched.incremental_gang", -1, op)
	inc, err := sched.NewIncremental(in.gangC, sched.TopoPacking, in.est)
	if err != nil {
		return r, err
	}
	for i, j := range in.gang {
		if _, err := inc.Append(j); err != nil {
			return r, err
		}
		if i+1 < len(in.gang) {
			inc.AdvanceTo(in.gang[i+1].Arrival)
		}
	}
	tr.do("sched.result", root, op, func() { r.inc, err = inc.Result() })
	tr.end(root)
	r.incT = time.Since(t0)
	if err != nil {
		return r, err
	}

	sc, err := sched.NewSchedulerWithEstimator(in.coC, sched.Packing, in.est)
	if err != nil {
		return r, err
	}
	r.coT = tr.do("sched.run_cotenant", -1, op, func() { r.co, err = sc.Run(in.co) })
	return r, err
}

// cluLog is what a timed pass produced. Only the first round's
// results are kept; later rounds are checked against it between rounds,
// outside their timed windows, and dropped.
type cluLog struct {
	first      cluRound
	rounds     int
	jobs       int
	elapsed    time.Duration
	roundTimes []time.Duration
	// Per-round replay times (ms).
	gangT, incT, coT []float64
}

// cluPass replays rounds until dur has passed. The oracle runs between
// rounds, and so do st's set-up repetitions if st is not nil; neither
// counts in the rounds' times or in dur.
func cluPass(in *cluInputs, dur time.Duration, tr *tracer, o *outcome, st *setupTimer) (cluLog, error) {
	var lg cluLog
	start := time.Now()
	var paused time.Duration
	for lg.rounds == 0 || time.Since(start)-paused < dur {
		t := threadCPU()
		r, err := cluRoundRun(in, tr, int64(lg.rounds))
		if err != nil {
			return lg, err
		}
		lg.roundTimes = append(lg.roundTimes, threadCPU()-t)
		c := time.Now()
		if lg.rounds == 0 {
			lg.first = r
		}
		cluCheck(lg.first, r, lg.rounds, o)
		if st != nil {
			st.upTo(float64(time.Since(start)-paused) / float64(dur))
		}
		paused += time.Since(c)
		lg.rounds++
		lg.jobs += 2*len(in.gang) + len(in.co)
		lg.gangT = append(lg.gangT, toMS(r.gangT))
		lg.incT = append(lg.incT, toMS(r.incT))
		lg.coT = append(lg.coT, toMS(r.coT))
	}
	lg.elapsed = time.Since(start) - paused
	o.digest = digestOf([]*sched.Result{lg.first.gang, lg.first.co})
	return lg, nil
}

// noOOM checks the never-over-commit guarantee on a result.
func noOOM(r *sched.Result) error {
	if r == nil {
		return errors.New("no result")
	}
	for d, st := range r.Devices {
		if st.PeakReserved > r.Cluster.Capacity() {
			return fmt.Errorf("device %d reserved %d of %d bytes", d, st.PeakReserved, r.Cluster.Capacity())
		}
		if r.Cluster.CrossJob && r.Cluster.HostSpillBytes > 0 && st.SpillPeak > r.Cluster.HostSpillBytes {
			return fmt.Errorf("device %d spilled %d past its %d-byte pool", d, st.SpillPeak, r.Cluster.HostSpillBytes)
		}
	}
	return nil
}

// cluCheck is the oracle for one round, run outside its timed window:
// the batch Run equals the Incremental result, neither over-commits a
// device, and the round repeats the first exactly.
func cluCheck(first, r cluRound, ri int, o *outcome) {
	gangOK := o.check(noOOM(r.gang) == nil, "round %d gang: %v", ri, noOOM(r.gang)) &&
		o.check(reflect.DeepEqual(r.gang, first.gang), "round %d gang result differs from round 0", ri)
	o.op(gangOK)
	o.op(o.check(reflect.DeepEqual(r.inc, r.gang), "round %d: incremental result differs from batch Run", ri))
	coOK := o.check(noOOM(r.co) == nil, "round %d co-tenant: %v", ri, noOOM(r.co)) &&
		o.check(reflect.DeepEqual(r.co, first.co), "round %d co-tenant result differs from round 0", ri)
	o.op(coOK)
}

func runCluster(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.clu
	var in *cluInputs
	st := &setupTimer{reps: sp.setupReps, setup: func() (err error) {
		in, err = cluSetup(sp, e.seed)
		return err
	}}
	st.once()
	if st.err != nil {
		return st.err
	}
	lg, err := cluPass(in, seconds(e.seconds), nil, o, st)
	if err != nil {
		return err
	}
	setup, err := st.median()
	if err != nil {
		return err
	}
	ms.set("setup_s", "s", setup)
	ms.set("rate_per_s", "1/s", roundRate(lg.roundTimes, 2*len(in.gang)+len(in.co)))
	first := lg.first
	fmt.Printf("cluster: %d rounds, %d jobs replayed over %.2fs; simulated gang makespan %v, mean wait %v; co-tenant makespan %v, mean wait %v\n",
		lg.rounds, lg.jobs, lg.elapsed.Seconds(), first.gang.Makespan, first.gang.MeanWait(), first.co.Makespan, first.co.MeanWait())
	return nil
}

// tracedCluster runs the cluster pass untraced and traced, times the
// estimator's cold fills, and measures what cross-job planning costs
// on the co-tenant trace.
func tracedCluster(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.clu
	in, err := cluSetup(sp, e.seed)
	if err != nil {
		return err
	}
	shapes := in.est.Len()
	half := seconds(e.seconds / 2)
	rt := startRuntimeStats()
	plain, err := cluPass(in, half, nil, &outcome{}, nil)
	if err != nil {
		return err
	}
	rt.stop()
	e.tr.on = true
	traced, err := cluPass(in, half, e.tr, o, nil)
	e.tr.on = false
	if err != nil {
		return err
	}
	rt.report(ms, "cluster")
	ms.set("trace.overhead.cluster", "ratio",
		roundRate(plain.roundTimes, 2*len(in.gang)+len(in.co))/roundRate(traced.roundTimes, 2*len(in.gang)+len(in.co)))

	ms.set("sched.estimate_ms", "ms", median(in.estimateMS))
	ms.set("sched.estimate_shapes", "count", float64(in.est.Len()))
	// Shapes filled in set-up over the shapes the estimator holds after
	// both passes: below 1 when a replay asked for a shape set-up
	// missed.
	ms.set("sched.estimate_hit_ratio", "ratio", float64(shapes)/float64(in.est.Len()))

	ms.set("sched.run_gang_ms", "ms", median(traced.gangT))
	ms.set("sched.incremental_gang_ms", "ms", median(traced.incT))
	ms.set("sched.run_cotenant_ms", "ms", median(traced.coT))

	// memplan.cost_ms: the co-tenant replay with cross-job planning
	// minus the same replay under isolated admission, medians of
	// alternating repeats.
	var with, without []float64
	e.tr.on = true
	for i := 0; i < 9; i++ {
		for _, c := range []struct {
			c   sched.Cluster
			out *[]float64
		}{{in.coC, &with}, {in.isoC, &without}} {
			s, err := sched.NewSchedulerWithEstimator(c.c, sched.Packing, in.est)
			if err != nil {
				return err
			}
			name := "memplan.cotenant_crossjob"
			if !c.c.CrossJob {
				name = "sched.cotenant_isolated"
			}
			var runErr error
			d := e.tr.do(name, -1, int64(i), func() { _, runErr = s.Run(in.co) })
			if runErr != nil {
				return runErr
			}
			*c.out = append(*c.out, toMS(d))
		}
	}
	e.tr.on = false
	ms.set("memplan.cost_ms", "ms", median(with)-median(without))

	first := traced.first
	admitted, rejected := 0, 0
	for _, res := range []*sched.Result{first.gang, first.co} {
		for _, j := range res.Jobs {
			if j.Rejected {
				rejected++
			} else {
				admitted++
			}
		}
	}
	peak, spill := 0, int64(0)
	for _, d := range first.co.Devices {
		peak = max(peak, d.PeakResidents)
		spill = max(spill, d.SpillPeak)
	}
	ms.set("sched.jobs_admitted", "count", float64(admitted))
	ms.set("sched.jobs_rejected", "count", float64(rejected))
	ms.set("memplan.peak_coresidents", "count", float64(peak))
	ms.set("memplan.spill_mb", "MB", float64(spill)/float64(hw.MiB))
	return nil
}
