package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/memmgr"
	"repro/internal/memplan"
	"repro/internal/sim"
)

// Snapshot serialization for a paused Incremental replay: the serving
// layer's log-compaction checkpoint. A snapshot is one encoding/json
// document at a single version; there is no other format and no
// compatibility path. Floats round-trip exactly (encoding/json writes
// the shortest representation that parses back to the same bits — the
// estimator key embeds the device spec, so a restored spec must
// compare equal bit for bit). The decoder is defensive: unknown fields
// and trailing data are refused, every index is validated, and
// malformed input returns an error matching ErrBadSnapshot — never a
// panic — which FuzzRestoreIncremental enforces.

// snapVersion is the only document version RestoreIncremental accepts.
const snapVersion = 2

// maxSnapDevices bounds the device count a snapshot may declare, so a
// hostile document cannot make newExec allocate without limit.
const maxSnapDevices = 1 << 16

// ErrBadSnapshot is the sentinel under every RestoreIncremental
// failure; errors.Is matches it through the per-field context.
var ErrBadSnapshot = errors.New("sched: bad snapshot")

// ErrSnapshotVersion reports a snapshot at a version this build does
// not decode — including the retired "snsnap 1" text format. It wraps
// ErrBadSnapshot.
var ErrSnapshotVersion = fmt.Errorf("%w: unsupported version", ErrBadSnapshot)

// snapshot is the serialized form of an exec plus its watermark. The
// exported scheduler types travel as they are; the unexported
// jobState, device and event fields are mirrored one for one. Planner
// state is never serialized — restore re-admits each device's
// residents (rebuildPlanners), and purity guarantees the identical
// plan.
type snapshot struct {
	Version int
	Policy  string
	Cluster Cluster

	Mark, Now sim.Time
	DoneSeq   int64

	FinCount, RejCount int
	SumJCT, SumWait    sim.Duration

	Jobs    []snapJob
	Devs    []snapDevice
	Pending []int // job indices
	Events  []snapEvent
}

type snapJob struct {
	Job
	RejReason string
	Est       memmgr.Estimate
	IterTimes []sim.Duration
	Remaining int
	Device    int
	Gang      []int
	GangAR    sim.Duration
	Started   bool
	Start     sim.Time
	Finish    sim.Time
	Preempts  int
	Marked    bool
	Running   bool
	LiveDone  int64
	Restores  int
	Shrinks   int
	LostIters int
	// Demand is the job's tensor-granularity planner demand under
	// CrossJob, carried verbatim rather than rebuilt from the program:
	// a restored replay must not depend on model-zoo code (or pay its
	// dry-run cost) to resume, and a hostile snapshot must not be able
	// to steer a program build.
	Demand *memplan.Demand `json:",omitempty"`
}

type snapDevice struct {
	FreeAt      sim.Time
	Busy        sim.Duration
	Used, Peak  int64
	Resident    []int // job indices
	RR          int
	Inflight    bool
	Iters       int
	MaxRes      int
	SpillPeak   int64
	Failed      bool
	DownSince   sim.Time
	Down        sim.Duration
	Fails       int
	MemIntegral float64
	LastT       sim.Time
}

type snapEvent struct {
	At    sim.Time
	Class uint8
	Seq   int64
	Job   int
	Dev   int
}

// EncodeSnapshot serializes the paused replay. Restoring the bytes
// with RestoreIncremental yields an Incremental whose Result() is
// byte-identical to the original's. It fails only when the state holds
// a non-finite float, which JSON cannot carry.
func EncodeSnapshot(inc *Incremental) ([]byte, error) {
	e := inc.ex
	s := snapshot{Version: snapVersion, Policy: e.policy.Name, Cluster: e.cluster,
		Mark: inc.mark, Now: e.now, DoneSeq: e.doneSeq,
		FinCount: e.finCount, RejCount: e.rejCount, SumJCT: e.sumJCT, SumWait: e.sumWait,
		Jobs: make([]snapJob, len(e.states)), Devs: make([]snapDevice, len(e.devs)),
		Pending: seqs(e.pending), Events: make([]snapEvent, len(e.q))}
	for i, js := range e.states {
		s.Jobs[i] = snapJob{Job: js.Job, RejReason: js.rejReason, Est: js.est, IterTimes: js.iterTimes,
			Remaining: js.remaining, Device: js.device, Gang: js.gang, GangAR: js.gangAR,
			Started: js.started, Start: js.start, Finish: js.finish, Preempts: js.preempts,
			Marked: js.marked, Running: js.running, LiveDone: js.liveDone,
			Restores: js.restores, Shrinks: js.shrinks, LostIters: js.lostIters}
		if e.crossjob && js.demand.Job != "" {
			d := js.demand
			s.Jobs[i].Demand = &d
		}
	}
	for i, d := range e.devs {
		s.Devs[i] = snapDevice{FreeAt: d.freeAt, Busy: d.busy, Used: d.used, Peak: d.peak,
			Resident: seqs(d.resident), RR: d.rr, Inflight: d.inflight, Iters: d.iters,
			MaxRes: d.maxRes, SpillPeak: d.spillPeak,
			Failed: d.failed, DownSince: d.downSince, Down: d.down, Fails: d.fails,
			MemIntegral: d.memIntegral, LastT: d.lastT}
	}
	for i, ev := range e.q {
		s.Events[i] = snapEvent{At: ev.at, Class: ev.class, Seq: ev.seq, Job: ev.job, Dev: ev.dev}
	}
	b, err := json.Marshal(&s)
	if err != nil {
		return nil, fmt.Errorf("sched: encoding snapshot: %w", err)
	}
	return append(b, '\n'), nil
}

// seqs lists the jobs' trace indices.
func seqs(list []*jobState) []int {
	out := make([]int, len(list))
	for i, js := range list {
		out[i] = js.seq
	}
	return out
}

// RestoreIncremental reconstructs a paused replay from EncodeSnapshot
// bytes. The estimator est seeds dry-run estimates for jobs appended
// after the restore (nil allocates a fresh one); already-snapshotted
// jobs carry their estimates in the snapshot. Every failure matches
// ErrBadSnapshot; a document at another version (or in the retired
// text format) also matches ErrSnapshotVersion.
func RestoreIncremental(data []byte, est *Estimator) (*Incremental, error) {
	inc, err := restoreSnapshot(data, est)
	if err != nil && !errors.Is(err, ErrBadSnapshot) {
		err = fmt.Errorf("%w: %w", ErrBadSnapshot, err)
	}
	return inc, err
}

func restoreSnapshot(data []byte, est *Estimator) (*Incremental, error) {
	if bytes.HasPrefix(data, []byte("snsnap ")) {
		line, _, _ := bytes.Cut(data, []byte{'\n'})
		return nil, fmt.Errorf("%w: %q text", ErrSnapshotVersion, line)
	}
	// Probe the version leniently first, so a newer document is
	// reported as a version mismatch rather than as unknown fields.
	// Unmarshal also refuses trailing data after the document.
	var probe struct{ Version int }
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, err
	}
	if probe.Version != snapVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrSnapshotVersion, probe.Version, snapVersion)
	}
	var s snapshot
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}

	ndev := s.Cluster.Devices
	if ndev > maxSnapDevices {
		return nil, fmt.Errorf("%d devices exceeds the limit of %d", ndev, maxSnapDevices)
	}
	if s.Cluster.CrossJob && s.Cluster.HostSpillBytes <= 0 {
		return nil, fmt.Errorf("cross-job cluster with spill pool %d", s.Cluster.HostSpillBytes)
	}
	policy, ok := PolicyByName(s.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", s.Policy)
	}
	// newExec re-validates the fault plan, so a hand-crafted document
	// cannot smuggle in an inconsistent event sequence.
	ex, err := newExec(s.Cluster, policy, est)
	if err != nil {
		return nil, err
	}
	ex.now, ex.doneSeq = s.Now, s.DoneSeq
	ex.finCount, ex.rejCount = s.FinCount, s.RejCount
	ex.sumJCT, ex.sumWait = s.SumJCT, s.SumWait

	ex.states = make([]*jobState, 0, len(s.Jobs))
	for i, sj := range s.Jobs {
		js := &jobState{Job: sj.Job, seq: i, rejReason: sj.RejReason, est: sj.Est, iterTimes: sj.IterTimes,
			remaining: sj.Remaining, device: sj.Device, gang: sj.Gang, gangAR: sj.GangAR,
			started: sj.Started, start: sj.Start, finish: sj.Finish, preempts: sj.Preempts,
			marked: sj.Marked, running: sj.Running, liveDone: sj.LiveDone,
			restores: sj.Restores, shrinks: sj.Shrinks, lostIters: sj.LostIters}
		if sj.Demand != nil {
			js.demand = *sj.Demand
		}
		if err := checkJob(js, sj.Demand != nil, ex.crossjob, ndev); err != nil {
			return nil, fmt.Errorf("job %d: %w", i, err)
		}
		ex.states = append(ex.states, js)
	}
	jobAt := func(idx int, what string) (*jobState, error) {
		if idx < 0 || idx >= len(ex.states) {
			return nil, fmt.Errorf("%s references job %d of %d", what, idx, len(ex.states))
		}
		return ex.states[idx], nil
	}

	if len(s.Devs) != ndev {
		return nil, fmt.Errorf("%d device records for %d devices", len(s.Devs), ndev)
	}
	for i, sd := range s.Devs {
		d := ex.devs[i]
		*d = device{freeAt: sd.FreeAt, busy: sd.Busy, used: sd.Used, peak: sd.Peak,
			rr: sd.RR, inflight: sd.Inflight, iters: sd.Iters, maxRes: sd.MaxRes, spillPeak: sd.SpillPeak,
			failed: sd.Failed, downSince: sd.DownSince, down: sd.Down, fails: sd.Fails,
			memIntegral: sd.MemIntegral, lastT: sd.LastT}
		for _, idx := range sd.Resident {
			js, err := jobAt(idx, "resident list")
			if err != nil {
				return nil, err
			}
			if !inGang(js.gang, i) {
				return nil, fmt.Errorf("job %d resident on dev %d but placed on %v", js.seq, i, js.gang)
			}
			d.resident = append(d.resident, js)
		}
		if err := checkDevice(d); err != nil {
			return nil, fmt.Errorf("dev %d: %w", i, err)
		}
	}
	for _, idx := range s.Pending {
		js, err := jobAt(idx, "pending list")
		if err != nil {
			return nil, err
		}
		ex.pending = append(ex.pending, js)
	}
	for k, se := range s.Events {
		ev := event{at: se.At, class: se.Class, seq: se.Seq, job: se.Job, dev: se.Dev}
		switch ev.class {
		case classArrival, classDone:
			if _, err := jobAt(ev.job, "event"); err != nil {
				return nil, err
			}
		case classFault:
			// A fault event's job field is the recover flag, not a job
			// index.
			if ev.job != 0 && ev.job != 1 {
				return nil, fmt.Errorf("fault event %d has recover flag %d", k, ev.job)
			}
		default:
			return nil, fmt.Errorf("event %d has class %d", k, ev.class)
		}
		if ev.dev < 0 || ev.dev >= ndev {
			return nil, fmt.Errorf("event %d references device %d of %d", k, ev.dev, ndev)
		}
		ex.q.push(ev)
	}
	// Reconstruct the device planners from the restored residents and
	// their demands; a resident without a usable demand (a hand-crafted
	// snapshot) surfaces here as an error, never a panic.
	if err := ex.rebuildPlanners(); err != nil {
		return nil, err
	}
	return &Incremental{ex: ex, mark: s.Mark}, nil
}

// checkJob enforces the per-job resume-safety invariants: these are
// what the event loop relies on to never index out of range, so a
// corrupted snapshot must fail here, not panic later.
func checkJob(js *jobState, hasDemand, crossjob bool, ndev int) error {
	if hasDemand {
		if !crossjob {
			return fmt.Errorf("planner demand in a snapshot without CrossJob")
		}
		d := js.demand
		if d.Job != plannerID(js) || d.PeakBytes != js.est.PeakBytes || d.IterTime != js.est.IterTime {
			return fmt.Errorf("planner demand %q does not match the job's estimate", d.Job)
		}
	}
	if js.Iterations < 1 {
		return fmt.Errorf("%d iterations", js.Iterations)
	}
	if js.GPUs < 1 {
		return fmt.Errorf("gang size %d", js.GPUs)
	}
	if js.rejReason != "" {
		return nil
	}
	if len(js.iterTimes) == 0 {
		return fmt.Errorf("no iteration times")
	}
	if js.remaining < 0 || js.remaining > js.Iterations {
		return fmt.Errorf("%d of %d iterations remaining", js.remaining, js.Iterations)
	}
	if js.device < -1 || js.device >= ndev {
		return fmt.Errorf("on device %d of %d", js.device, ndev)
	}
	if js.gangAR < 0 {
		return fmt.Errorf("negative all-reduce price")
	}
	if js.restores < 0 || js.shrinks < 0 || js.lostIters < 0 || js.liveDone < -1 {
		return fmt.Errorf("negative fault counters")
	}
	// Gang members must be valid, strictly ascending device indices —
	// the event loop indexes devices through them.
	for k, g := range js.gang {
		if g < 0 || g >= ndev {
			return fmt.Errorf("gang member %d of %d devices", g, ndev)
		}
		if k > 0 && g <= js.gang[k-1] {
			return fmt.Errorf("gang not strictly ascending")
		}
	}
	return nil
}

// checkDevice enforces the per-device invariants over a restored
// device and its resident list.
func checkDevice(d *device) error {
	if len(d.resident) > 0 {
		if d.rr < 0 || d.rr >= len(d.resident) {
			return fmt.Errorf("round-robin cursor %d out of range", d.rr)
		}
	} else if d.rr != 0 {
		return fmt.Errorf("round-robin cursor %d with no residents", d.rr)
	}
	if d.maxRes < len(d.resident) {
		return fmt.Errorf("co-residency high-water mark %d below %d residents", d.maxRes, len(d.resident))
	}
	if d.fails < 0 || d.down < 0 {
		return fmt.Errorf("negative fault counters")
	}
	// A failed device holds no residents and runs nothing — its victims
	// were displaced when the failure fired.
	if d.failed && (len(d.resident) > 0 || d.inflight) {
		return fmt.Errorf("failed but has residents or in-flight work")
	}
	return nil
}

func inGang(gang []int, dev int) bool {
	for _, g := range gang {
		if g == dev {
			return true
		}
	}
	return false
}
