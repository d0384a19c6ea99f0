package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestCoTenantTraceIsDeterministic(t *testing.T) {
	a, b := CoTenantTrace(), CoTenantTrace()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the co-tenant trace differ")
	}
	if FormatTrace(a) != FormatTrace(b) {
		t.Fatal("co-tenant trace bytes differ across generations")
	}
}

func TestCoTenantTraceShape(t *testing.T) {
	jobs := CoTenantTrace()
	if len(jobs) != 48 {
		t.Fatalf("trace has %d jobs, want 48", len(jobs))
	}
	seen := make(map[string]bool)
	dynamic, static := 0, 0
	for i, j := range jobs {
		if seen[j.ID] {
			t.Fatalf("duplicate job id %q", j.ID)
		}
		seen[j.ID] = true
		if j.ArrivalMS < 0 || j.Iterations < 2 || j.Batch <= 0 {
			t.Fatalf("job %d malformed: %+v", i, j)
		}
		if len(j.BatchSchedule) > 1 {
			dynamic++
			if err := j.BatchSchedule.Validate(); err != nil {
				t.Fatalf("job %d schedule: %v", i, err)
			}
			if j.Batch != j.BatchSchedule.Max() {
				t.Fatalf("job %d batch %d is not its schedule's max %d", i, j.Batch, j.BatchSchedule.Max())
			}
		} else {
			static++
		}
	}
	if dynamic == 0 || static == 0 {
		t.Fatalf("trace must mix static and dynamic jobs, got %d static / %d dynamic", static, dynamic)
	}
	// The trace must survive its own file format — snsched writes and
	// replays it through ParseTrace.
	rt, err := ParseTrace(strings.NewReader(FormatTrace(jobs)))
	if err != nil {
		t.Fatalf("round-trip parse: %v", err)
	}
	if !reflect.DeepEqual(rt, jobs) {
		t.Fatal("co-tenant trace does not round-trip through the trace format")
	}
}

func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"16x2,32,64x3", "128", "1x1", "0", "-4", "8x0", "x", ",", "16,,32",
		"  8 , 8 ", "999999999999999999999", "64x2x2", "3x", "7,7,7,7",
		fmt.Sprint(MaxBatch + 1), fmt.Sprintf("16,%dx2", MaxBatch+1), fmt.Sprint(1 << 60),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSchedule(in)
		if err != nil {
			return
		}
		// A parse that succeeds must yield a valid schedule...
		if verr := s.Validate(); verr != nil {
			t.Fatalf("ParseSchedule(%q) accepted an invalid schedule: %v", in, verr)
		}
		if s.Max() <= 0 || s.Max() > MaxBatch {
			t.Fatalf("ParseSchedule(%q): max %d", in, s.Max())
		}
		// ...whose canonical rendering re-parses to the same schedule
		// (the trace file format's batch column round-trip).
		rt, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", s.String(), in, err)
		}
		if !reflect.DeepEqual(rt, s) {
			t.Fatalf("round trip changed the schedule: %v -> %q -> %v", s, s.String(), rt)
		}
	})
}
