package sched

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

// gangCluster is the bundled gang evaluation cluster: 256 K40c devices
// in a DGX-style multi-node topology.
func gangCluster(overlap bool) Cluster {
	return Cluster{
		Device:   hw.TeslaK40c,
		Devices:  workload.GangClusterDevices,
		Topology: hw.DefaultTopology(),
		Overlap:  overlap,
	}
}

func runGangTrace(t *testing.T, c Cluster, p Policy, est *Estimator) *Result {
	t.Helper()
	s, err := NewSchedulerWithEstimator(c, p, est)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(JobsFromTrace(workload.GangTrace()))
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// Gang admission is all-or-nothing: a two-device gang on a cluster
// with only one free device waits for the second, rather than
// starting degraded or holding one device idle-but-reserved forever.
func TestGangAllOrNothing(t *testing.T) {
	// AlexNet b512 naive reserves ~62% of a K40c, so two cannot share
	// a device: while the single job holds device 0, the gang can
	// reserve device 1 only by waiting for atomically available room
	// on both.
	jobs := []Job{
		{ID: "single", Network: "AlexNet", Batch: 512, Manager: "naive", Arrival: 0, Iterations: 3},
		{ID: "gang", Network: "AlexNet", Batch: 512, Manager: "naive", GPUs: 2, Arrival: 0, Iterations: 2},
	}
	s, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 2}, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	single, gang := res.Jobs[0], res.Jobs[1]
	if single.Rejected || gang.Rejected {
		t.Fatalf("unexpected rejection: %+v %+v", single, gang)
	}
	if gang.Start != single.Finish {
		t.Errorf("gang started at %d, want %d (when the single job vacated)", int64(gang.Start), int64(single.Finish))
	}
	if want := []int{0, 1}; !reflect.DeepEqual(gang.Gang, want) {
		t.Errorf("gang placed on %v, want %v", gang.Gang, want)
	}
	if gang.Device != 0 {
		t.Errorf("gang Device = %d, want its first member 0", gang.Device)
	}
	if single.Gang != nil {
		t.Errorf("single-device job reports gang %v, want nil", single.Gang)
	}
}

// A gang wider than the whole cluster is rejected up front, like a
// single job that cannot fit an idle device.
func TestGangWiderThanClusterRejected(t *testing.T) {
	s, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 2}, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{
		{ID: "wide", Network: "AlexNet", Batch: 64, Manager: "naive", GPUs: 3, Iterations: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if !j.Rejected {
		t.Fatal("3-device gang on a 2-device cluster was not rejected")
	}
	if !strings.Contains(j.Reason, "gang needs 3 devices") {
		t.Errorf("rejection reason %q does not name the gang width", j.Reason)
	}
}

// Two replays of the bundled 256-device gang trace must agree in
// every field, for every policy — the tentpole determinism criterion.
func TestGangTraceDeterministic(t *testing.T) {
	est := NewEstimator()
	for _, p := range Policies() {
		a := runGangTrace(t, gangCluster(true), p, est)
		b := runGangTrace(t, gangCluster(true), p, est)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two gang-trace replays differ", p.Name)
		}
	}
}

// The bundled gang trace also replays identically through the trace
// format: format → parse → run matches run on the in-memory trace.
func TestGangTraceFormatRoundTrip(t *testing.T) {
	text := workload.FormatTrace(workload.GangTrace())
	parsed, err := workload.ParseTraceLimit(bytes.NewReader([]byte(text)), workload.GangClusterDevices)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, workload.GangTrace()) {
		t.Fatal("gang trace does not round-trip through the trace format")
	}
}

// Topology-aware packing beats FIFO on the bundled gang trace: higher
// compute utilization and lower mean JCT — locality prices gangs onto
// faster tiers, and backfill keeps devices busy past blocked heads.
func TestTopoPackingBeatsFIFOOnGangTrace(t *testing.T) {
	est := NewEstimator()
	fifo := runGangTrace(t, gangCluster(true), FIFO, est)
	topo := runGangTrace(t, gangCluster(true), TopoPacking, est)
	if topo.ComputeUtilization <= fifo.ComputeUtilization {
		t.Errorf("topo compute utilization %.3f not above fifo %.3f",
			topo.ComputeUtilization, fifo.ComputeUtilization)
	}
	if topo.MeanJCT() >= fifo.MeanJCT() {
		t.Errorf("topo mean JCT %v not below fifo %v", topo.MeanJCT(), fifo.MeanJCT())
	}
	if topo.Makespan >= fifo.Makespan {
		t.Errorf("topo makespan %v not below fifo %v", topo.Makespan, fifo.Makespan)
	}
}

// Topology-aware placement keeps every gang that fits an NVLink
// island inside one: under an empty cluster, a 4-wide gang lands on
// devices {0,1,2,3}, never straddling islands or nodes.
func TestTopoPackingPrefersIsland(t *testing.T) {
	s, err := NewScheduler(gangCluster(false), TopoPacking)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{
		{ID: "g4", Network: "AlexNet", Batch: 256, Manager: "naive", GPUs: 4, Iterations: 1},
		{ID: "g8", Network: "AlexNet", Batch: 256, Manager: "naive", GPUs: 8, Iterations: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo := hw.DefaultTopology()
	g4 := res.Jobs[0].Gang
	if len(g4) != 4 {
		t.Fatalf("g4 placed on %v", g4)
	}
	for _, d := range g4[1:] {
		if topo.TierBetween(g4[0], d) != hw.TierNVLink {
			t.Errorf("4-wide gang %v straddles NVLink islands", g4)
			break
		}
	}
	g8 := res.Jobs[1].Gang
	if len(g8) != 8 {
		t.Fatalf("g8 placed on %v", g8)
	}
	for _, d := range g8[1:] {
		if !topo.SameNode(g8[0], d) {
			t.Errorf("8-wide gang %v straddles nodes", g8)
			break
		}
	}
}

// Overlapping the all-reduce with backward compute measurably lowers
// a gang job's completion time against the serialized exchange.
func TestOverlapLowersGangJCT(t *testing.T) {
	jobs := []Job{
		{ID: "gang", Network: "AlexNet", Batch: 256, Manager: "naive", GPUs: 2, Iterations: 4},
	}
	run := func(overlap bool) JobResult {
		s, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 2, Overlap: overlap}, FIFO)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[0]
	}
	serial, overlapped := run(false), run(true)
	if overlapped.JCT >= serial.JCT {
		t.Errorf("overlap JCT %v not below serialized %v", overlapped.JCT, serial.JCT)
	}
}

// A slower interconnect tier must cost iteration time: the same gang
// across nodes finishes later than inside an NVLink island.
func TestCrossNodeGangSlower(t *testing.T) {
	// Fill node 0 so the second gang is forced across nodes: on a
	// 2-node cluster of 8 devices, the first two 4-wide gangs pack
	// node 0's islands, and the third must span nodes... simpler: two
	// clusters, one with a topology whose "nodes" are single devices
	// (every pair crosses the network) and one flat NVLink-free node.
	jobs := []Job{{ID: "g", Network: "AlexNet", Batch: 256, Manager: "naive", GPUs: 4, Iterations: 2}}
	run := func(topo hw.Topology) JobResult {
		s, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 4, Topology: topo}, FIFO)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		return res.Jobs[0]
	}
	island := run(hw.Topology{DevicesPerNode: 4, NVLinkIsland: 4})
	crossNode := run(hw.Topology{DevicesPerNode: 1})
	if crossNode.JCT <= island.JCT {
		t.Errorf("cross-node gang JCT %v not above NVLink island %v", crossNode.JCT, island.JCT)
	}
}

// Preemption releases whole gangs atomically: evicting a 2-device
// gang for a high-priority arrival frees both devices, the victim
// re-queues, and everything still completes.
func TestGangPreemptionAtomic(t *testing.T) {
	jobs := []Job{
		{ID: "victim", Network: "AlexNet", Batch: 512, Manager: "naive", GPUs: 2, Priority: 1,
			Arrival: 0, Iterations: 6},
		{ID: "urgent", Network: "AlexNet", Batch: 512, Manager: "naive", Priority: 9,
			Arrival: sim.Time(sim.Millisecond), Iterations: 1},
	}
	s, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 2}, Priority)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	victim, urgent := res.Jobs[0], res.Jobs[1]
	if victim.Rejected || urgent.Rejected {
		t.Fatalf("unexpected rejection: %+v %+v", victim, urgent)
	}
	if victim.Preemptions < 1 {
		t.Error("gang victim was never preempted")
	}
	if urgent.Start >= victim.Finish {
		t.Errorf("urgent job started at %d, after the victim finished at %d — preemption did not free the gang",
			int64(urgent.Start), int64(victim.Finish))
	}
	// The re-admitted gang still occupies two devices.
	if len(victim.Gang) != 2 {
		t.Errorf("victim's final placement %v, want a 2-device gang", victim.Gang)
	}
}

// An incremental replay with gangs — paused, snapshotted, restored —
// produces the exact batch-run result; the snapshot round-trips byte
// for byte through encode → restore → encode.
func TestGangSnapshotRoundTrip(t *testing.T) {
	cluster := Cluster{Device: hw.TeslaK40c, Devices: 8, Topology: hw.DefaultTopology(), Overlap: true}
	jobs := []Job{
		{ID: "g2", Network: "AlexNet", Batch: 256, Manager: "naive", GPUs: 2, Priority: 1, Arrival: 0, Iterations: 4},
		{ID: "g4", Network: "AlexNet", Batch: 512, Manager: "naive", GPUs: 4, Priority: 2,
			Arrival: sim.Time(sim.Millisecond), Iterations: 3},
		{ID: "s1", Network: "AlexNet", Batch: 128, Manager: "naive", Priority: 5,
			Arrival: 2 * sim.Time(sim.Millisecond), Iterations: 5},
		{ID: "hi", Network: "AlexNet", Batch: 512, Manager: "naive", Priority: 9,
			Arrival: 3 * sim.Time(sim.Millisecond), Iterations: 2},
	}
	est := NewEstimator()
	batch, err := func() (*Result, error) {
		s, err := NewSchedulerWithEstimator(cluster, Priority, est)
		if err != nil {
			return nil, err
		}
		return s.Run(jobs)
	}()
	if err != nil {
		t.Fatal(err)
	}

	inc, err := NewIncremental(cluster, Priority, est)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	// Pause mid-flight so gangs are resident (and possibly marked).
	inc.AdvanceTo(4 * sim.Time(sim.Millisecond))
	snap := mustEncode(t, inc)
	restored, err := RestoreIncremental(snap, est)
	if err != nil {
		t.Fatal(err)
	}
	if again := mustEncode(t, restored); !bytes.Equal(again, snap) {
		t.Error("snapshot does not round-trip byte for byte")
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, batch) {
		t.Error("restored gang replay diverges from the batch run")
	}
}

// TestPreGangSnapshotRestores: snapshots in the retired "snsnap 1"
// text format (here a pre-gang one, which used to restore to the zero
// topology) and documents at a future version are both refused with
// ErrSnapshotVersion — there is one snapshot format and no legacy path.
func TestPreGangSnapshotRestores(t *testing.T) {
	legacy := "snsnap 1\npolicy packing\ndevice d 1 1024 0x0 0x0 0 0 0 0 0x3ff0000000000000 0x3ff0000000000000\ndevices 1\nclock 0 0 0\nagg 0 0 0 0\njobs 0\ndev 0 0 0 0 0 0 0 0 0x0 0 0\npending 0\nevents 0\nend\n"
	inc, err := NewIncremental(Cluster{Device: hw.TeslaK40c, Devices: 1}, Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	future := editSnapshot(t, mustEncode(t, inc), "Version", 3)
	for name, data := range map[string][]byte{"snsnap 1 text": []byte(legacy), "version 3": future} {
		_, err := RestoreIncremental(data, nil)
		if !errors.Is(err, ErrSnapshotVersion) || !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: want ErrSnapshotVersion, got %v", name, err)
		}
	}
}

// TestGangChaosConcurrentReplays hammers the shared estimator from
// concurrent gang replays under the preemptive policy — submit,
// preempt and re-admit gangs on every goroutine at once — and then
// asserts all goroutines computed the identical schedule. Run with
// -race in CI.
func TestGangChaosConcurrentReplays(t *testing.T) {
	trace := workload.GangTrace()[:120]
	cluster := Cluster{Device: hw.TeslaK40c, Devices: 16, Topology: hw.DefaultTopology(), Overlap: true}
	jobs := JobsFromTrace(trace)
	est := NewEstimator()

	const workers = 8
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := NewSchedulerWithEstimator(cluster, Priority, est)
			if err != nil {
				errs[w] = err
				return
			}
			// Interleave batch runs with an incremental replay that
			// pauses mid-trace, so paused gang state is exercised
			// concurrently too.
			if w%2 == 0 {
				results[w], errs[w] = s.Run(jobs)
				return
			}
			inc, err := NewIncremental(cluster, Priority, est)
			if err != nil {
				errs[w] = err
				return
			}
			for _, j := range jobs {
				if _, err := inc.Append(j); err != nil {
					errs[w] = err
					return
				}
			}
			inc.AdvanceTo(sim.Time(uint64(w) * uint64(sim.Millisecond)))
			results[w], errs[w] = inc.Result()
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if !reflect.DeepEqual(results[w].Jobs, results[0].Jobs) {
			t.Errorf("worker %d computed a different schedule", w)
		}
	}
}
