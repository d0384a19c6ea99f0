package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// testJobs is a stream exercising every job fate: admitted, backfilled,
// preempted, dynamic-shape, type-2 rejected (fits nowhere).
func testJobs() []Job {
	ms := func(v int64) sim.Time { return sim.Time(v) * sim.Time(sim.Millisecond) }
	return []Job{
		{ID: "big-a", Network: "ResNet50", Batch: 32, Manager: "naive", Priority: 2, Arrival: ms(0), Iterations: 6},
		{ID: "big-b", Network: "VGG16", Batch: 32, Manager: "caffe", Priority: 2, Arrival: ms(0), Iterations: 3},
		{ID: "hot", Network: "AlexNet", Batch: 512, Manager: "naive", Priority: 9, Arrival: ms(40), Iterations: 4},
		{ID: "dyn", Network: "AlexNet", Batch: 512, BatchSchedule: []int{128, 512, 128}, Manager: "superneurons", Priority: 3, Arrival: ms(60), Iterations: 3},
		{ID: "small", Network: "AlexNet", Batch: 128, Manager: "naive", Priority: 1, Arrival: ms(80), Iterations: 5},
		{ID: "huge", Network: "AlexNet", Batch: 1024, Manager: "naive", Priority: 4, Arrival: ms(100), Iterations: 1},
		{ID: "late", Network: "AlexNet", Batch: 64, Manager: "naive", Priority: 5, Arrival: ms(900), Iterations: 4},
	}
}

// TestIncrementalMatchesBatch replays the stream through an
// Incremental with every split point and watermark choice and demands
// the exact batch-run Result each time: the core determinism claim
// behind log compaction.
func TestIncrementalMatchesBatch(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	est := NewEstimator()
	for _, p := range Policies() {
		s, err := NewSchedulerWithEstimator(c, p, est)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for split := 0; split <= len(jobs); split++ {
			inc, err := NewIncremental(c, p, est)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs[:split] {
				if _, err := inc.Append(j); err != nil {
					t.Fatalf("%s split %d: %v", p.Name, split, err)
				}
			}
			// Advance as far as the suffix allows: to the next
			// arrival, exclusive.
			if split < len(jobs) {
				inc.AdvanceTo(jobs[split].Arrival)
			} else {
				inc.AdvanceTo(1 << 50)
			}
			for _, j := range jobs[split:] {
				if _, err := inc.Append(j); err != nil {
					t.Fatalf("%s split %d: %v", p.Name, split, err)
				}
			}
			got, err := inc.Result()
			if err != nil {
				t.Fatalf("%s split %d: %v", p.Name, split, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s split %d: incremental result diverges from batch:\ngot  %+v\nwant %+v", p.Name, split, got, want)
			}
		}
	}
}

// TestIncrementalResultLeavesReplayPaused checks Result() works on a
// clone: calling it twice, interleaved with appends, never corrupts
// the paused state.
func TestIncrementalResultLeavesReplayPaused(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	inc, err := NewIncremental(c, Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:4] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(jobs[4].Arrival)
	r1, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("repeated Result() diverged:\n%+v\n%+v", r1, r2)
	}
	for _, j := range jobs[4:] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := NewScheduler(c, Packing)
	want, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result after intermediate Result() calls diverged from batch")
	}
}

// TestIncrementalFinalized checks the O(1) status fast path: finalized
// verdicts match the full result and never flip.
func TestIncrementalFinalized(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	inc, err := NewIncremental(c, FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := inc.Finalized(0); ok {
		t.Fatal("job finalized before any advance")
	}
	// "huge" is rejected up front: finalized immediately.
	if jr, ok := inc.Finalized(5); !ok || !jr.Rejected {
		t.Fatalf("rejected job not finalized immediately: %+v ok=%v", jr, ok)
	}
	want, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	inc.AdvanceTo(1 << 50)
	for i := range jobs {
		jr, ok := inc.Finalized(i)
		if !ok {
			t.Fatalf("job %d not finalized after full drain", i)
		}
		if !reflect.DeepEqual(jr, want.Jobs[i]) {
			t.Fatalf("job %d finalized status diverges:\ngot  %+v\nwant %+v", i, jr, want.Jobs[i])
		}
	}
	if inc.Finished()+inc.Rejected() != len(jobs) {
		t.Fatalf("aggregate counts %d+%d do not cover %d jobs", inc.Finished(), inc.Rejected(), len(jobs))
	}
}

// TestAppendBeforeWatermarkRejected: virtual time only moves forward.
func TestAppendBeforeWatermarkRejected(t *testing.T) {
	inc, err := NewIncremental(testCluster(), FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc.AdvanceTo(sim.Time(100 * sim.Millisecond))
	if _, err := inc.Append(Job{ID: "past", Network: "AlexNet", Batch: 64, Arrival: sim.Time(50 * sim.Millisecond), Iterations: 1}); err == nil {
		t.Fatal("append below the watermark succeeded")
	}
}

// TestSnapshotRoundTrip pauses mid-stream, snapshots, restores, and
// demands the restored replay finish byte-identically to both the
// original and a batch run — including the snapshot bytes themselves
// being stable across encode/restore/encode. The second cluster sizes
// a host spill pool it never uses (CrossJob is off), which the batch
// result still reports.
func TestSnapshotRoundTrip(t *testing.T) {
	jobs := testJobs()
	spill := testCluster()
	spill.HostSpillBytes = 8 << 30
	for _, p := range Policies() {
		t.Run(p.Name, func(t *testing.T) {
			for _, c := range []Cluster{testCluster(), spill} {
				s, err := NewScheduler(c, p)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				for split := 1; split < len(jobs); split++ {
					inc, err := NewIncremental(c, p, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, j := range jobs[:split] {
						if _, err := inc.Append(j); err != nil {
							t.Fatal(err)
						}
					}
					inc.AdvanceTo(jobs[split].Arrival)
					snap := mustEncode(t, inc)
					restored, err := RestoreIncremental(snap, nil)
					if err != nil {
						t.Fatalf("split %d: restore: %v", split, err)
					}
					if again := mustEncode(t, restored); string(again) != string(snap) {
						t.Fatalf("split %d: snapshot not stable across restore:\n--- first\n%s\n--- second\n%s", split, snap, again)
					}
					for _, j := range jobs[split:] {
						if _, err := restored.Append(j); err != nil {
							t.Fatal(err)
						}
					}
					got, err := restored.Result()
					if err != nil {
						t.Fatalf("split %d: %v", split, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("split %d: snapshot-resumed result diverges from batch:\ngot  %+v\nwant %+v", split, got, want)
					}
					if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Fatalf("split %d: rendered results differ", split)
					}
				}
			}
		})
	}
}

// TestSnapshotDecodeErrors feeds the decoder malformed snapshots; each
// must error cleanly with ErrBadSnapshot.
func TestSnapshotDecodeErrors(t *testing.T) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range testJobs()[:3] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(50 * sim.Millisecond))
	good := mustEncode(t, inc)
	if inc.ex.devs[0].maxRes != 1 || len(inc.ex.devs[0].resident) != 1 || len(inc.ex.devs[1].resident) != 1 {
		t.Fatal("test premise: each device holds one resident")
	}

	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    []byte("snsnap 99\n"),
		"truncated":    good[:len(good)/2],
		"no end":       good[:len(good)-len("}\n")],
		"binary junk":  {0xff, 0xfe, 0x00, 0x01},
		"huge count":   editSnapshot(t, good, "Cluster.Devices", 999999999),
		"bad float":    editSnapshot(t, good, "Cluster.Device.PeakFLOPS", "zz"),
		"unknown pol":  editSnapshot(t, good, "Policy", "lottery"),
		"neg devices":  editSnapshot(t, good, "Cluster.Devices", -4),
		"resident mix": editSnapshot(t, good, "Devs.0.Resident", []int{1}),
		// The co-residency high-water mark can never sit below the
		// current residency.
		"max residents below residency": editSnapshot(t, good, "Devs.0.MaxRes", 0),
	}
	for name, data := range cases {
		_, err := RestoreIncremental(data, nil)
		if err == nil {
			t.Errorf("%s: decoder accepted malformed snapshot", name)
		} else if !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err %v does not match ErrBadSnapshot", name, err)
		}
	}
}

// mustEncode is EncodeSnapshot failing the test on error.
func mustEncode(t testing.TB, inc *Incremental) []byte {
	t.Helper()
	snap, err := EncodeSnapshot(inc)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// editSnapshot decodes a snapshot document, sets the existing field at
// a dotted path of object keys and array indices (e.g.
// "Devs.0.MaxRes") to val, and re-encodes it. Numbers decode as
// json.Number, so untouched 64-bit fields survive exactly.
func editSnapshot(t testing.TB, snap []byte, path string, val any) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(snap))
	dec.UseNumber()
	var doc any
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	keys := strings.Split(path, ".")
	node := doc
	for i, k := range keys {
		last := i == len(keys)-1
		switch n := node.(type) {
		case map[string]any:
			if _, ok := n[k]; !ok {
				t.Fatalf("%s: no field %q", path, k)
			}
			if last {
				n[k] = val
			}
			node = n[k]
		case []any:
			idx, err := strconv.Atoi(k)
			if err != nil || idx < 0 || idx >= len(n) {
				t.Fatalf("%s: no element %q", path, k)
			}
			if last {
				n[idx] = val
			}
			node = n[idx]
		default:
			t.Fatalf("%s: %q is not inside an object or array", path, k)
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// FuzzRestoreIncremental asserts the snapshot decoder never panics,
// and that anything it accepts re-encodes stably and can be drained
// without panicking — the framing half of the fuzz satellite. The
// text seeds are the retired "snsnap 1" format, which must be refused.
func FuzzRestoreIncremental(f *testing.F) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range testJobs() {
		if _, err := inc.Append(j); err != nil {
			f.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(70 * sim.Millisecond))
	f.Add(mustEncode(f, inc))
	// A mid-outage seed: a failed device, a shrunk gang and a queued
	// recovery event exercise the fault state of the document.
	fcl, fjobs := faultCluster(f)
	finc, err := NewIncremental(fcl, TopoPacking, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range fjobs {
		if _, err := finc.Append(j); err != nil {
			f.Fatal(err)
		}
	}
	finc.AdvanceTo(sim.Time(2500 * sim.Millisecond))
	f.Add(mustEncode(f, finc))
	f.Add([]byte("snsnap 1\npolicy fifo\n"))
	f.Add([]byte("snsnap 1\npolicy packing\ndevice d 1 1 0x0 0x0 0 0 0 0 0x3ff0000000000000 0x3ff0000000000000\ndevices 1\nclock 0 0 0\nagg 0 0 0 0\njobs 0\ndev 0 0 0 0 0 0 0 0 0x0 0\npending 0\nevents 0\nend\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreIncremental(data, nil)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("restore error %v does not match ErrBadSnapshot", err)
			}
			return
		}
		// Accepted snapshots must re-encode stably and drain cleanly
		// (errors fine, panics not).
		again := mustEncode(t, restored)
		r2, err := RestoreIncremental(again, nil)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		r2.Result()
	})
}
