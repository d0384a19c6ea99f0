package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/nnet"
	"repro/internal/workload"
)

func testCapSpec(t *testing.T) capSpec {
	t.Helper()
	sp := capSpec{rounds: 3, digestRounds: 1, deeper: 1, wider: 7, dynamic: 6, setupReps: 1,
		deeperFW: "SuperNeurons", deeperBatch: []int{16, 32}, maxN3: 64,
		widerFW: []string{"Caffe", "SuperNeurons"}, widerNets: []string{"AlexNet", "VGG16", "ResNet50"},
		dynNet: "ResNet50", dynPoolMiB: 2600, dynBatches: []int{16, 24, 32, 48}, dynLen: 6}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func testCluSpec(t *testing.T) cluSpec {
	t.Helper()
	sp := cluSpec{gangJobs: 120, gangWave: 50, gangWaveMS: 2000, coJobs: 40, coWave: 8, coWaveMS: 1500,
		setupReps: 1}
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	cs, ls := testCapSpec(t), testCluSpec(t)
	if !reflect.DeepEqual(genCapacity(cs, 7), genCapacity(cs, 7)) {
		t.Error("capacity queries differ for the same seed")
	}
	if reflect.DeepEqual(genCapacity(cs, 7), genCapacity(cs, 8)) {
		t.Error("capacity queries equal across seeds")
	}
	g1, c1 := genCluster(ls, 7)
	g2, c2 := genCluster(ls, 7)
	if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(c1, c2) {
		t.Error("cluster traces differ for the same seed")
	}
	g3, c3 := genCluster(ls, 8)
	if reflect.DeepEqual(g1, g3) || reflect.DeepEqual(c1, c3) {
		t.Error("cluster traces equal across seeds")
	}
	r1 := newReqGen(7, "open", 4).take("o", 50)
	if !reflect.DeepEqual(r1, newReqGen(7, "open", 4).take("o", 50)) {
		t.Error("serve requests differ for the same seed")
	}
	if reflect.DeepEqual(r1, newReqGen(8, "open", 4).take("o", 50)) {
		t.Error("serve requests equal across seeds")
	}
}

// TestCapacityRoundsStratified checks that every round holds the same
// mix, so seeds differ in order, not in how much work a round is.
func TestCapacityRoundsStratified(t *testing.T) {
	sp := testCapSpec(t)
	for seed := uint64(0); seed < 5; seed++ {
		for ri, round := range genCapacity(sp, seed) {
			kinds := map[string]int{}
			shapes := map[string]int{}
			for _, q := range round {
				kinds[q.Kind]++
				if q.Kind == "dynamic" {
					shapes[q.Shape]++
					if err := q.Schedule.Validate(); err != nil || len(q.Schedule) != sp.dynLen {
						t.Fatalf("seed %d round %d: bad schedule %v (%v)", seed, ri, q.Schedule, err)
					}
					if s, err := workload.ParseSchedule(q.Schedule.String()); err != nil || !reflect.DeepEqual(s, q.Schedule) {
						t.Fatalf("schedule %v does not round-trip: %v %v", q.Schedule, s, err)
					}
				}
				if q.Kind != "deeper" && nnet.ByName(q.Network) == nil {
					t.Fatalf("unknown network %q", q.Network)
				}
			}
			want := map[string]int{"deeper": sp.deeper, "wider": sp.wider, "dynamic": sp.dynamic}
			if !reflect.DeepEqual(kinds, want) || shapes["ramp"] != 3 || shapes["buckets"] != 3 {
				t.Fatalf("seed %d round %d: mix %v shapes %v, want %v and 3 of each shape", seed, ri, kinds, shapes, want)
			}
		}
	}
}

// TestTracesParseTraceValid checks that generated traces are exactly
// what ParseTrace reads back from their own formatting.
func TestTracesParseTraceValid(t *testing.T) {
	gang, co := genCluster(testCluSpec(t), 3)
	for name, jobs := range map[string][]workload.TraceJob{"gang": gang, "cotenant": co} {
		back, err := workload.ParseTraceLimit(strings.NewReader(workload.FormatTrace(jobs)), workload.GangClusterDevices)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(back, jobs) {
			t.Fatalf("%s trace does not round-trip through ParseTrace", name)
		}
		for i, j := range jobs {
			if i > 0 && j.ArrivalMS < jobs[i-1].ArrivalMS {
				t.Fatalf("%s: job %d arrives before job %d", name, i, i-1)
			}
			if nnet.ByName(j.Network) == nil {
				t.Fatalf("%s: unknown network %q", name, j.Network)
			}
		}
	}
}

// TestRequestsParseTraceValid checks that every generated submit
// request describes a job ParseTrace accepts.
func TestRequestsParseTraceValid(t *testing.T) {
	var b strings.Builder
	b.WriteString(workload.TraceHeader)
	reqs := newReqGen(5, "open", 8).take("o", 64)
	for _, r := range reqs {
		batch := r.Batch
		var sched workload.Schedule
		if r.Schedule != "" {
			s, err := workload.ParseSchedule(r.Schedule)
			if err != nil {
				t.Fatalf("%s: %v", r.ID, err)
			}
			sched, batch = s, s.Max()
		}
		b.WriteString(workload.FormatJob(workload.TraceJob{ID: r.Tenant + "/" + r.ID, Network: r.Network,
			Batch: batch, BatchSchedule: sched, Manager: r.Manager, Priority: r.Priority, Iterations: max(r.Iterations, 1)}))
	}
	jobs, err := workload.ParseTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != len(reqs) {
		t.Fatalf("parsed %d of %d jobs", len(jobs), len(reqs))
	}
	tenants := map[string]bool{}
	for _, r := range reqs {
		tenants[r.Tenant] = true
	}
	if len(tenants) != 8 {
		t.Fatalf("%d tenants used, want all 8", len(tenants))
	}
}
