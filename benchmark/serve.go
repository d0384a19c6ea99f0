package main

// The serve workload: an in-process job service behind its HTTP
// handler on a loopback listener, restarted on a write-ahead log the
// benchmark first filled with a seeded history, then driven by one
// closed-loop client per CPU. Every ack waits for its fsync. The traced
// run adds an open loop: submits offered at a fixed rate with status
// reads beside them.
//
// The WAL lives in the run's directory inside the checkout; its
// filesystem is printed with the results.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/workload"
)

func serveConfig(sp serveSpec, walDir string) (serve.Config, error) {
	c, err := sched.NewCluster(sched.Uniform(device, sp.devices))
	if err != nil {
		return serve.Config{}, err
	}
	return serve.Config{
		Cluster:       c,
		Policy:        sched.Packing,
		SpacingMS:     sp.spacingMS,
		SnapshotEvery: sp.snapshotEvery,
		WALDir:        walDir,
	}, nil
}

// prefill fills a WAL directory with the seeded history, one submit at
// a time so the log is the same on every run of a seed, and returns the
// history's request log and schedule.
func prefill(sp serveSpec, seed uint64, dir string) (string, *sched.Result, error) {
	cfg, err := serveConfig(sp, dir)
	if err != nil {
		return "", nil, err
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return "", nil, err
	}
	for _, req := range newReqGen(seed, "prefill", sp.tenants).take("h", sp.prefill) {
		st, err := svc.Submit(req)
		if err != nil {
			return "", nil, fmt.Errorf("prefill %s: %w", req.ID, err)
		}
		if !st.Durable {
			return "", nil, fmt.Errorf("prefill %s: ack not durable", req.ID)
		}
	}
	res, err := svc.Drain()
	if err != nil {
		return "", nil, err
	}
	log := svc.ReplayLog()
	return log, res, svc.Close()
}

// copyDir copies a flat directory of WAL segments.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// live is a running service with its HTTP front end.
type live struct {
	svc    *serve.Service
	srv    *http.Server
	done   chan error
	tr     *http.Transport
	client *serve.Client
}

// start serves svc's handler on a loopback listener; clients share at
// most conns connections.
func start(svc *serve.Service, conns int) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &live{svc: svc, srv: &http.Server{Handler: svc.Handler()}, done: make(chan error, 1)}
	go func() { l.done <- l.srv.Serve(ln) }()
	l.tr = &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	l.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: l.tr}}
	if err := l.client.Healthz(); err != nil {
		l.stop()
		return nil, err
	}
	return l, nil
}

// stop closes the listener and connections and waits for the server
// goroutine to return.
func (l *live) stop() error {
	l.tr.CloseIdleConnections()
	err := l.srv.Close()
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// shutdown drains and closes the service after its front end stops.
func (l *live) shutdown() (*sched.Result, error) {
	err := l.stop()
	res, derr := l.svc.Drain()
	if cerr := l.svc.Close(); derr == nil {
		derr = cerr
	}
	if err == nil {
		err = derr
	}
	return res, err
}

// serveInputs is the prefilled history and the WAL copies the set-up
// repetitions restart from.
type serveInputs struct {
	sp         serveSpec
	history    string
	historyRes *sched.Result
	// lastID is the last job of the history, acked before any restart.
	lastID string
	copies []string
}

func servePrepare(sp serveSpec, seed uint64, dir string, reps int) (*serveInputs, error) {
	in := &serveInputs{sp: sp}
	src := filepath.Join(dir, "prefill")
	var err error
	if in.history, in.historyRes, err = prefill(sp, seed, src); err != nil {
		return nil, err
	}
	in.lastID = in.historyRes.Jobs[len(in.historyRes.Jobs)-1].ID
	for i := 0; i < reps; i++ {
		d := filepath.Join(dir, fmt.Sprintf("wal-%d", i))
		if err := copyDir(src, d); err != nil {
			return nil, err
		}
		in.copies = append(in.copies, d)
	}
	// Flush the copies now, so their write-back does not land inside a
	// timed restart.
	syscall.Sync()
	return in, nil
}

// restart is the timed set-up: recover the service from a copy of the
// prefilled WAL (which re-runs the dry-run estimates of every shape in
// the history and replays it up to the watermark) and bring up its
// HTTP front end.
func restart(in *serveInputs, i int) (*live, error) {
	cfg, err := serveConfig(in.sp, in.copies[i])
	if err != nil {
		return nil, err
	}
	svc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	if got := len(svc.Recovered().Jobs); got != in.sp.prefill {
		return nil, fmt.Errorf("recovered %d jobs, prefilled %d", got, in.sp.prefill)
	}
	l, err := start(svc, runtime.NumCPU())
	if err != nil {
		svc.Close()
		return nil, err
	}
	return l, nil
}

// serveLog collects the outcomes of both phases.
type serveLog struct {
	open      []olResult
	openSt    []*serve.JobStatus
	openN     int // submits offered in the open loop
	closed    int // durable acks of the closed loop
	closedBad []string
	closedT   time.Duration
	closedCPU time.Duration
	queueFull int
	overload  int
}

func (lg *serveLog) classify(err error) {
	switch {
	case errors.Is(err, serve.ErrQueueFull):
		lg.queueFull++
	case errors.Is(err, serve.ErrOverloaded):
		lg.overload++
	}
}

// ackOK reports whether a submit's response is the durable, sequenced
// ack of the job it submitted.
func ackOK(req serve.SubmitRequest, st *serve.JobStatus) bool {
	return st != nil && st.Durable && st.Seq >= 0 && st.ID == req.Tenant+"/"+req.ID &&
		(st.State == serve.StateScheduled || st.State == serve.StateRejected)
}

// openPhase offers submits at the fixed rate, with a status read of the
// latest acked job beside every read_every-th submit; acked names the
// job read before the phase's first ack.
func openPhase(sp serveSpec, l *live, seed uint64, dur time.Duration, tr *tracer, lg *serveLog, acked string) {
	n := int(sp.rate * dur.Seconds())
	reqs := newReqGen(seed, "open", sp.tenants).take("o", n)
	items := olSchedule(n, sp.rate, sp.readEvery)
	lg.openN = n
	lg.openSt = make([]*serve.JobStatus, len(items))
	var mu sync.Mutex
	t0 := time.Now()
	clock := func() time.Duration { return time.Since(t0) }
	slot := map[olItem]int{}
	for i, it := range items {
		slot[it] = i
	}
	lg.open = openLoop(items, runtime.NumCPU(), clock, func(it olItem) error {
		if it.read {
			mu.Lock()
			id := acked
			mu.Unlock()
			var st *serve.JobStatus
			var err error
			tr.do("serve.http_status", -1, int64(it.idx), func() { st, err = l.client.Status(id) })
			if err == nil && (st.ID != id || st.Seq < 0) {
				err = fmt.Errorf("status of %s answered %s seq %d", id, st.ID, st.Seq)
			}
			return err
		}
		req := reqs[it.idx]
		var st *serve.JobStatus
		var err error
		tr.do("serve.http_submit", -1, int64(it.idx), func() { st, err = l.client.Submit(req) })
		if err == nil && !ackOK(req, st) {
			err = fmt.Errorf("submit %s: bad ack %+v", req.ID, st)
		}
		if err == nil {
			mu.Lock()
			acked = st.ID
			mu.Unlock()
		}
		lg.openSt[slot[it]] = st
		return err
	})
	for _, r := range lg.open {
		lg.classify(r.err)
	}
}

// closedPhase runs one client per CPU, each submitting its next job
// when the previous one is acked, until dur has passed or, if jobs is
// not 0, jobs submits have been made.
func closedPhase(sp serveSpec, l *live, seed uint64, stream string, dur time.Duration, jobs int, tr *tracer, lg *serveLog) {
	gen := newReqGen(seed, stream, sp.tenants)
	var mu sync.Mutex
	n := 0
	var wg sync.WaitGroup
	t0, cpu0 := time.Now(), processCPU()
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if time.Since(t0) >= dur || (jobs > 0 && n >= jobs) {
					mu.Unlock()
					return
				}
				req := gen.next(fmt.Sprintf("%s%06d", stream, n))
				n++
				mu.Unlock()
				var st *serve.JobStatus
				var err error
				tr.do("serve.http_submit", -1, -1, func() { st, err = l.client.Submit(req) })
				mu.Lock()
				lg.classify(err)
				if err == nil && ackOK(req, st) {
					lg.closed++
				} else {
					lg.closedBad = append(lg.closedBad, fmt.Sprintf("%s: %v", req.ID, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	lg.closedT, lg.closedCPU = time.Since(t0), processCPU()-cpu0
}

// closedRate is the closed loop's durable acks per second of the
// process's CPU time: clients, HTTP, service and WAL together.
func (lg *serveLog) closedRate() float64 { return float64(lg.closed) / lg.closedCPU.Seconds() }

// replayEquals checks the drained request log against the drain: the
// log, parsed and replayed through a fresh scheduler, must give the
// same schedule.
func replayEquals(cfg serve.Config, log string, drained *sched.Result) error {
	jobs, err := workload.ParseTrace(strings.NewReader(log))
	if err != nil {
		return err
	}
	s, err := sched.NewScheduler(cfg.Cluster, cfg.Policy)
	if err != nil {
		return err
	}
	got, err := s.Run(sched.JobsFromTrace(jobs))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, drained) {
		return errors.New("replaying the drained request log gives a different schedule than the drain")
	}
	return nil
}

func runServe(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.srv
	in, err := servePrepare(sp, e.seed, e.workDir, sp.setupReps)
	if err != nil {
		return err
	}
	// Only the restart is timed; each restarted service but the last is
	// drained and closed before the next restart, outside the clock.
	var l *live
	st := &setupTimer{reps: sp.setupReps, setup: func() (err error) {
		l, err = restart(in, len(in.copies)-1)
		in.copies = in.copies[:len(in.copies)-1]
		return err
	}}
	for i := 0; i < sp.setupReps; i++ {
		if l != nil {
			if _, err := l.shutdown(); err != nil {
				return err
			}
		}
		st.once()
	}
	setup, err := st.median()
	if err != nil {
		return err
	}
	fmt.Printf("serve: WAL on %s, %d prefilled jobs, %d devices, spacing %d ms\n",
		statfsName(e.workDir), sp.prefill, sp.devices, sp.spacingMS)
	lg := &serveLog{}
	// The service keeps every job it sequenced, so its memory grows with
	// the acks; a fixed number of them keeps peak_rss_mb independent of
	// how fast the host ran.
	closedPhase(sp, l, e.seed, "c", seconds(e.seconds), sp.closedJobs, nil, lg)
	log := l.svc.ReplayLog()
	drained, err := l.shutdown()
	if err != nil {
		return err
	}
	scfg, err := serveConfig(sp, "")
	if err != nil {
		return err
	}
	serveCheck(scfg, lg, log, drained, in, o)
	ms.set("setup_s", "s", setup)
	ms.set("rate_per_s", "1/s", lg.closedRate())
	fmt.Printf("serve: closed loop %d acks from %d clients in %.2fs (%.0f per wall second, %.2f CPU seconds); queue full %d, overloaded %d\n",
		lg.closed, runtime.NumCPU(), lg.closedT.Seconds(), float64(lg.closed)/lg.closedT.Seconds(), lg.closedCPU.Seconds(),
		lg.queueFull, lg.overload)
	return nil
}

// serveCheck counts every submit and read as an operation, plus one
// for the drain replay check, and digests the deterministic history.
func serveCheck(cfg serve.Config, lg *serveLog, log string, drained *sched.Result, in *serveInputs, o *outcome) {
	for _, r := range lg.open {
		o.op(r.err == nil)
		o.check(r.err == nil, "open loop: %v", r.err)
	}
	for i := 0; i < lg.closed; i++ {
		o.op(true)
	}
	for _, b := range lg.closedBad {
		o.op(false)
		o.check(false, "closed loop: %s", b)
	}
	err := replayEquals(cfg, log, drained)
	o.op(err == nil)
	o.check(err == nil, "drain: %v", err)
	o.digest = digestOf(struct {
		Log    string
		Result *sched.Result
	}{in.history, in.historyRes})
}

// ---- traced pass ----

// twinSubmit feeds the same requests to three fresh services and times
// each submit: over HTTP with a WAL, in process with a WAL, and in
// process without one.
func twinSubmit(sp serveSpec, seed uint64, dir string, tr *tracer) (httpUS, directUS, noWALUS []float64, err error) {
	reqs := newReqGen(seed, "twin", sp.tenants).take("w", sp.twinJobs)
	mk := func(name string, wal bool) (*serve.Service, error) {
		d := ""
		if wal {
			d = filepath.Join(dir, name)
		}
		cfg, err := serveConfig(sp, d)
		if err != nil {
			return nil, err
		}
		return serve.New(cfg)
	}
	a, err := mk("twin-http", true)
	if err != nil {
		return nil, nil, nil, err
	}
	la, err := start(a, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	b, err := mk("twin-direct", true)
	if err != nil {
		return nil, nil, nil, err
	}
	c, err := mk("", false)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, req := range reqs {
		var e1, e2, e3 error
		httpUS = append(httpUS, toUS(tr.do("serve.http_submit", -1, int64(i), func() { _, e1 = la.client.Submit(req) })))
		directUS = append(directUS, toUS(tr.do("serve.submit", -1, int64(i), func() { _, e2 = b.Submit(req) })))
		noWALUS = append(noWALUS, toUS(tr.do("serve.submit_nowal", -1, int64(i), func() { _, e3 = c.Submit(req) })))
		if err = errors.Join(e1, e2, e3); err != nil {
			break
		}
	}
	_, e1 := la.shutdown()
	_, e2 := b.Drain()
	_, e3 := c.Drain()
	return httpUS, directUS, noWALUS, errors.Join(err, e1, e2, e3, b.Close(), c.Close())
}

// ackReplay replays a request log through an Incremental the way the
// service sequences it, timing the per-job status an ack computes.
func ackReplay(cfg serve.Config, log string, tr *tracer) ([]float64, error) {
	jobs, err := workload.ParseTrace(strings.NewReader(log))
	if err != nil {
		return nil, err
	}
	inc, err := sched.NewIncremental(cfg.Cluster, cfg.Policy, sched.NewEstimator())
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(jobs))
	lastAdv := 0
	for i, tj := range jobs {
		if _, err := inc.Append(sched.JobFromTrace(tj)); err != nil {
			return nil, err
		}
		if i+1-lastAdv >= cfg.SnapshotEvery {
			inc.AdvanceTo(sim.Time(int64(i+1)*cfg.SpacingMS) * sim.Time(sim.Millisecond))
			lastAdv = i + 1
		}
		var jerr error
		d := tr.do("sched.ack_result", -1, int64(i), func() {
			if _, ok := inc.Finalized(i); !ok {
				_, jerr = inc.JobResult(i)
			}
		})
		if jerr != nil {
			return nil, jerr
		}
		out = append(out, toUS(d))
	}
	return out, nil
}

func tracedServe(e *env, ms *metrics, o *outcome) error {
	sp := e.specs.srv
	const reps = 3
	in, err := servePrepare(sp, e.seed, e.workDir, reps)
	if err != nil {
		return err
	}
	e.tr.on = true
	var recov []float64
	var l *live
	for i := 0; i < reps; i++ {
		var x *live
		d := e.tr.do("serve.recover", -1, int64(i), func() { x, err = restart(in, i) })
		if err != nil {
			e.tr.on = false
			return err
		}
		recov = append(recov, toMS(d))
		if i < reps-1 {
			if _, err := x.shutdown(); err != nil {
				return err
			}
		} else {
			l = x
		}
	}
	var parse []float64
	for i := 0; i < 5; i++ {
		parse = append(parse, toMS(e.tr.do("workload.parse_trace", -1, int64(i), func() {
			_, err = workload.ParseTrace(strings.NewReader(in.history))
		})))
	}
	e.tr.on = false
	if err != nil {
		return err
	}
	ms.set("serve.recover_ms", "ms", median(recov))
	ms.set("workload.parse_trace_ms", "ms", median(parse))

	quarter := seconds(e.seconds / 4)
	plain, lg := &serveLog{}, &serveLog{}
	rt := startRuntimeStats()
	closedPhase(sp, l, e.seed, "p", quarter, 0, nil, plain)
	rt.stop()
	e.tr.on = true
	closedPhase(sp, l, e.seed, "q", quarter, 0, e.tr, lg)
	openPhase(sp, l, e.seed, quarter, e.tr, lg, in.lastID)
	e.tr.on = false
	rt.report(ms, "serve")
	ms.set("trace.overhead.serve", "ratio", plain.closedRate()/lg.closedRate())

	// The open loop's latencies, from each request's due time unless its
	// worker was idle (see olResult).
	var sub, read []float64
	for _, r := range lg.open {
		if r.item.read {
			read = append(read, toMS(r.latency()))
		} else {
			sub = append(sub, toMS(r.latency()))
		}
	}
	setLatency(ms, o, "serve.open_", sub, sp.tailPct)
	setLatency(ms, o, "serve.read_", read, sp.tailPct)
	lg.closed += plain.closed
	lg.closedBad = append(lg.closedBad, plain.closedBad...)
	lg.queueFull += plain.queueFull
	lg.overload += plain.overload

	var lag []float64
	for _, r := range lg.open {
		lag = append(lag, toMS(r.lag()))
	}
	ms.set("loadgen.lag_ms", "ms", percentile(lag, sp.tailPct))
	ms.set("serve.queue_full", "count", float64(lg.queueFull))
	ms.set("serve.overloaded", "count", float64(lg.overload))

	// Status straight into the service, for acked jobs of the open loop.
	var status []float64
	e.tr.on = true
	for i, st := range lg.openSt {
		if st == nil {
			continue
		}
		var serr error
		d := e.tr.do("serve.status", -1, int64(i), func() { _, serr = l.svc.Status(st.ID) })
		if serr != nil {
			err = serr
		}
		status = append(status, toUS(d))
	}
	e.tr.on = false
	if err != nil {
		return err
	}
	ms.set("serve.status_us", "us", median(status))

	log := l.svc.ReplayLog()
	drained, err := l.shutdown()
	if err != nil {
		return err
	}
	scfg, err := serveConfig(sp, "")
	if err != nil {
		return err
	}
	serveCheck(scfg, lg, log, drained, in, o)

	e.tr.on = true
	ack, err := ackReplay(scfg, log, e.tr)
	if err != nil {
		e.tr.on = false
		return err
	}
	ms.set("serve.ack_replay_us", "us", median(ack))
	h, d, n, err := twinSubmit(sp, e.seed, e.workDir, e.tr)
	e.tr.on = false
	if err != nil {
		return err
	}
	ms.set("serve.http_submit_us", "us", median(h))
	ms.set("serve.submit_us", "us", median(d))
	ms.set("serve.submit_nowal_us", "us", median(n))
	return nil
}
