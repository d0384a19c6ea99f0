package sched

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

func TestFaultPlanValidate(t *testing.T) {
	cases := map[string]struct {
		plan FaultPlan
		want string // substring of the error, "" for valid
	}{
		"empty":        {FaultPlan{}, ""},
		"fail only":    {FaultPlan{[]FaultEvent{{At: ms(100), Device: 1}}}, ""},
		"fail recover": {FaultPlan{[]FaultEvent{{At: ms(100), Device: 1}, {At: ms(200), Device: 1, Recover: true}}}, ""},
		"two devices interleaved": {FaultPlan{[]FaultEvent{
			{At: ms(100), Device: 0}, {At: ms(150), Device: 1},
			{At: ms(200), Device: 0, Recover: true}, {At: ms(300), Device: 0}}}, ""},
		"out of order in plan, consistent per device": {FaultPlan{[]FaultEvent{
			{At: ms(200), Device: 1, Recover: true}, {At: ms(100), Device: 1}}}, ""},
		"device out of range": {FaultPlan{[]FaultEvent{{At: ms(100), Device: 2}}}, "targets device 2 of 2"},
		"negative device":     {FaultPlan{[]FaultEvent{{At: ms(100), Device: -1}}}, "targets device -1"},
		"negative time":       {FaultPlan{[]FaultEvent{{At: -1, Device: 0}}}, "negative time"},
		"recover while up":    {FaultPlan{[]FaultEvent{{At: ms(100), Device: 0, Recover: true}}}, "recovers at"},
		"double fail":         {FaultPlan{[]FaultEvent{{At: ms(100), Device: 0}, {At: ms(200), Device: 0}}}, "while already failed"},
		"same instant pair":   {FaultPlan{[]FaultEvent{{At: ms(100), Device: 0}, {At: ms(100), Device: 0, Recover: true}}}, "two fault events at time"},
		"recover after cycle": {FaultPlan{[]FaultEvent{{At: ms(1), Device: 0}, {At: ms(2), Device: 0, Recover: true}, {At: ms(3), Device: 0, Recover: true}}}, "recovers at"},
	}
	for name, tc := range cases {
		err := tc.plan.Validate(2)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", name, err)
			}
		} else if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", name, tc.want, err)
		}
	}
}

// faultCluster is the bundled failure-scenario cluster: the FaultTrace
// jobs on one DefaultTopology node with overlapped gangs.
func faultCluster(t testing.TB) (Cluster, []Job) {
	t.Helper()
	jobs, faults := workload.FaultTrace()
	c, err := NewCluster(Uniform(hw.TeslaK40c, workload.FaultClusterDevices),
		WithTopology(hw.DefaultTopology()), WithOverlap(),
		WithFaultPlan(FaultsFromTrace(faults)))
	if err != nil {
		t.Fatal(err)
	}
	return c, JobsFromTrace(jobs)
}

// TestFaultTraceZeroJobsLost is the headline acceptance check: the
// bundled fault trace kills devices mid-flight under every policy, yet
// no job is lost — every victim restores from its iteration-boundary
// checkpoint and finishes — and the gang demonstrably shrinks
// elastically instead of being evicted.
func TestFaultTraceZeroJobsLost(t *testing.T) {
	c, jobs := faultCluster(t)
	est := NewEstimator()
	for _, p := range []Policy{FIFO, Priority, Packing, TopoPacking} {
		s, err := NewSchedulerWithEstimator(c, p, est)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		var shrunk, restored, lost int
		for _, j := range r.Jobs {
			if j.Rejected {
				t.Errorf("%s: job %s rejected: %s", p.Name, j.ID, j.Reason)
			}
			if j.Finish == 0 {
				t.Errorf("%s: job %s never finished", p.Name, j.ID)
			}
			shrunk += j.Shrinks
			restored += j.Restores
			lost += j.LostIterations
		}
		if shrunk == 0 {
			t.Errorf("%s: no gang shrank elastically", p.Name)
		}
		if restored < 2 {
			t.Errorf("%s: want at least 2 checkpoint restores, got %d", p.Name, restored)
		}
		if lost == 0 {
			t.Errorf("%s: no iteration was killed mid-flight", p.Name)
		}
		// The gang must have shrunk, not been evicted: exactly one
		// shrink, its final placement one member short of its request.
		gang := r.Jobs[0]
		if gang.Shrinks != 1 || len(gang.Gang) != gang.GPUs-1 {
			t.Errorf("%s: gang shrinks=%d placement=%v (want 1 shrink, %d survivors)",
				p.Name, gang.Shrinks, gang.Gang, gang.GPUs-1)
		}
		for _, g := range gang.Gang {
			if g == 2 {
				t.Errorf("%s: gang still placed on failed device 2: %v", p.Name, gang.Gang)
			}
		}
		// Device stats carry the outage: device 4 fails permanently
		// (down through end of trace), device 2 fails and recovers.
		if r.Devices[4].Failures != 1 || r.Devices[4].Downtime != r.Makespan-sim.Duration(ms(1500)) {
			t.Errorf("%s: dev4 failures=%d downtime=%d (makespan %d)",
				p.Name, r.Devices[4].Failures, r.Devices[4].Downtime, r.Makespan)
		}
		if r.Devices[2].Failures != 1 || r.Devices[2].Downtime != sim.Duration(ms(2000)) {
			t.Errorf("%s: dev2 failures=%d downtime=%d", p.Name, r.Devices[2].Failures, r.Devices[2].Downtime)
		}
		// Recovery re-enters placement: the post-recovery arrival lands
		// on the recovered device.
		late := r.Jobs[len(r.Jobs)-1]
		if late.Device != 2 {
			t.Errorf("%s: post-recovery job on device %d, want recovered device 2", p.Name, late.Device)
		}
	}
}

// TestFaultReplayDeterministic: two from-scratch runs of the fault
// trace are deep-equal, and an incremental replay paused and resumed
// across the outage matches the batch run exactly.
func TestFaultReplayDeterministic(t *testing.T) {
	c, jobs := faultCluster(t)
	est := NewEstimator()
	run := func() *Result {
		s, err := NewSchedulerWithEstimator(c, TopoPacking, est)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two batch replays differ")
	}

	for _, pause := range []int64{0, 1500, 1700, 2000, 2100, 4000, 5000} {
		inc, err := NewIncremental(c, TopoPacking, est)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := inc.Append(j); err != nil {
				t.Fatal(err)
			}
		}
		inc.AdvanceTo(ms(pause))
		got, err := inc.Result()
		if err != nil {
			t.Fatalf("pause %d: %v", pause, err)
		}
		if !reflect.DeepEqual(a, got) {
			t.Fatalf("pause at %dms: incremental result diverges from batch", pause)
		}
	}
}

// TestFaultSnapshotMidOutage: a snapshot taken while a device is down
// (and a gang already shrunk) restores and drains to the exact batch
// result, and the snapshot itself round-trips byte-identically.
func TestFaultSnapshotMidOutage(t *testing.T) {
	c, jobs := faultCluster(t)
	est := NewEstimator()
	s, err := NewSchedulerWithEstimator(c, TopoPacking, est)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, pause := range []int64{1600, 2500, 3999, 4001} {
		inc, err := NewIncremental(c, TopoPacking, est)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := inc.Append(j); err != nil {
				t.Fatal(err)
			}
		}
		inc.AdvanceTo(ms(pause))
		snap := mustEncode(t, inc)
		restored, err := RestoreIncremental(snap, est)
		if err != nil {
			t.Fatalf("pause %dms: restore: %v", pause, err)
		}
		if again := mustEncode(t, restored); !bytes.Equal(snap, again) {
			t.Fatalf("pause %dms: snapshot not byte-stable through restore", pause)
		}
		got, err := restored.Result()
		if err != nil {
			t.Fatalf("pause %dms: %v", pause, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("pause %dms: restored result diverges from batch", pause)
		}
	}
}

// TestFaultCrossJob: under CrossJob admission the device planners
// re-plan on failure (victims release member by member) and the
// elastic shrink re-probes surviving planners; the run completes with
// no job lost and stays deterministic.
func TestFaultCrossJob(t *testing.T) {
	jobs, faults := workload.FaultTrace()
	c, err := NewCluster(Uniform(hw.TeslaK40c, workload.FaultClusterDevices),
		WithTopology(hw.DefaultTopology()), WithOverlap(), WithCrossJob(8*hw.GiB),
		WithFaultPlan(FaultsFromTrace(faults)))
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator()
	run := func() *Result {
		s, err := NewSchedulerWithEstimator(c, Packing, est)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(JobsFromTrace(jobs))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cross-job fault replays differ")
	}
	restores := 0
	for _, j := range a.Jobs {
		if j.Rejected {
			t.Errorf("job %s rejected: %s", j.ID, j.Reason)
		}
		if j.Finish == 0 {
			t.Errorf("job %s never finished", j.ID)
		}
		restores += j.Restores
	}
	if restores == 0 {
		t.Error("no checkpoint restores under cross-job admission")
	}
}

// TestFaultGangFullRequeue: when a whole gang's devices fail there are
// no survivors to shrink onto, so the gang re-queues through admission
// and finishes on other devices, keeping its completed iterations.
func TestFaultGangFullRequeue(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{
		{At: ms(1500), Device: 0},
		{At: ms(1600), Device: 1},
	}}
	c, err := NewCluster(Uniform(hw.TeslaK40c, 4),
		WithTopology(hw.Topology{DevicesPerNode: 4, NVLinkIsland: 2}),
		WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{ID: "g", Network: "ResNet50", Batch: 32, Manager: "naive",
		Priority: 5, Iterations: 6, GPUs: 2}}
	s, err := NewScheduler(c, TopoPacking)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Jobs[0]
	// First failure (device 0) shrinks the pair to {1}; the second
	// kills the survivor, so the job re-queues and finishes on the
	// remaining island.
	if g.Shrinks != 1 || g.Restores != 2 {
		t.Errorf("shrinks=%d restores=%d, want 1 and 2", g.Shrinks, g.Restores)
	}
	if g.Finish == 0 {
		t.Error("gang never finished")
	}
	for _, d := range g.Gang {
		if d == 0 || d == 1 {
			t.Errorf("final placement %v uses a failed device", g.Gang)
		}
	}
}

// TestFaultInvalidPlanRejected: every constructor path validates the
// fault plan against the pool size.
func TestFaultInvalidPlanRejected(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{{At: ms(100), Device: 9}}}
	if _, err := NewCluster(Uniform(hw.TeslaK40c, 2), WithFaultPlan(plan)); err == nil {
		t.Error("NewCluster accepted an out-of-range fault device")
	}
	c := Cluster{Device: hw.TeslaK40c, Devices: 2, Faults: plan}
	if _, err := NewScheduler(c, FIFO); err == nil {
		t.Error("NewScheduler accepted an out-of-range fault device")
	}
	if _, err := NewIncremental(c, FIFO, nil); err == nil {
		t.Error("NewIncremental accepted an out-of-range fault device")
	}
}

// TestFaultSingleDeviceRequeue: a single-device victim killed
// mid-iteration loses only the in-flight iteration; the completed
// count is preserved through the re-queue.
func TestFaultSingleDeviceRequeue(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{{At: ms(2000), Device: 0}}}
	c, err := NewCluster(Uniform(hw.TeslaK40c, 2), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{ID: "a", Network: "AlexNet", Batch: 512, Manager: "naive",
		Priority: 5, Iterations: 4}}
	s, err := NewScheduler(c, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	j := r.Jobs[0]
	if j.Restores != 1 || j.Shrinks != 0 || j.LostIterations != 1 {
		t.Errorf("restores=%d shrinks=%d lost=%d, want 1, 0, 1", j.Restores, j.Shrinks, j.LostIterations)
	}
	if j.Device != 1 || j.Finish == 0 {
		t.Errorf("victim finished on device %d at %d, want device 1", j.Device, int64(j.Finish))
	}
	// The finish pays for the aborted iteration: 4 completed + 1 lost
	// re-run from the checkpoint.
	if r.Devices[0].Iterations+r.Devices[1].Iterations != 4 {
		t.Errorf("completed iterations %d+%d, want 4 total",
			r.Devices[0].Iterations, r.Devices[1].Iterations)
	}
}

// TestFaultSnapshotDecodeErrors corrupts the fault state of a
// mid-outage snapshot; each corruption must error cleanly with
// ErrBadSnapshot, never panic or restore an inconsistent replay.
func TestFaultSnapshotDecodeErrors(t *testing.T) {
	c, jobs := faultCluster(t)
	inc, err := NewIncremental(c, TopoPacking, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	// Pause mid-outage: device 4 is down, the gang has shrunk, and the
	// recovery event is still queued.
	inc.AdvanceTo(ms(2500))
	good := mustEncode(t, inc)
	if _, err := RestoreIncremental(good, nil); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	recovery := -1
	for k, ev := range inc.ex.q {
		if ev.class == classFault && ev.job == 1 {
			recovery = k
		}
	}
	if recovery < 0 {
		t.Fatal("test premise: no queued recovery event")
	}

	cases := map[string][]byte{
		// The fault plan is re-validated by newExec.
		"faults count mismatch":     editSnapshot(t, good, "Cluster.Faults.Events.1", c.Faults.Events[0]),
		"fault device out of range": editSnapshot(t, good, "Cluster.Faults.Events.0.Device", 99),
		// The queued recovery event's job field is the recover flag.
		"bad fault recover flag": editSnapshot(t, good, fmt.Sprintf("Events.%d.Job", recovery), 7),
		// Per-job and per-device fault counters must be non-negative.
		"negative restores":  editSnapshot(t, good, "Jobs.0.Restores", -1),
		"negative liveDone":  editSnapshot(t, good, "Jobs.0.LiveDone", -2),
		"negative downtime":  editSnapshot(t, good, "Devs.4.Down", -5),
		"negative failcount": editSnapshot(t, good, "Devs.4.Fails", -1),
		// A failed device cannot hold residents or in-flight work.
		"failed device with residents": editSnapshot(t, good, "Devs.0.Failed", true),
	}
	for name, data := range cases {
		_, err := RestoreIncremental(data, nil)
		if err == nil {
			t.Errorf("%s: decoder accepted corrupted snapshot", name)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err %v does not match ErrBadSnapshot", name, err)
		}
	}
}

// TestFaultPermanentStrandedError: a trace whose permanent failures
// leave a pending gang nowhere to run errors out naming the failed
// devices instead of reporting a generic deadlock.
func TestFaultPermanentStrandedError(t *testing.T) {
	plan := FaultPlan{Events: []FaultEvent{{At: ms(500), Device: 1}}}
	c, err := NewCluster(Uniform(hw.TeslaK40c, 2), WithFaultPlan(plan))
	if err != nil {
		t.Fatal(err)
	}
	// The gang needs both devices; after device 1 dies it can never be
	// placed again.
	jobs := []Job{{ID: "g", Network: "ResNet50", Batch: 32, Manager: "naive",
		Priority: 5, Arrival: ms(1000), Iterations: 2, GPUs: 2}}
	s, err := NewScheduler(c, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(jobs)
	if err == nil || !strings.Contains(err.Error(), "devices failed") {
		t.Errorf("want stranded error naming failed devices, got %v", err)
	}
}
