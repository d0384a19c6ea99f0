package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

func startServer(t *testing.T, cfg Config) (*Client, *Service) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, s
}

func TestHTTPEndToEnd(t *testing.T) {
	c, _ := startServer(t, Config{})
	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	st, err := c.Submit(SubmitRequest{Tenant: "web", ID: "a", Network: "AlexNet", Batch: 16, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "web/a" {
		t.Errorf("submitted id = %q", st.ID)
	}
	if _, err := c.Submit(SubmitRequest{Tenant: "web", ID: "dyn", Network: "AlexNet", Schedule: "16x2,32"}); err != nil {
		t.Fatal(err)
	}
	m, err := c.MetricsWait(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSequenced != 2 {
		t.Fatalf("metrics sequenced = %d, want 2", m.JobsSequenced)
	}
	if m2, err := c.Metrics(); err != nil || m2.JobsSequenced != 2 {
		t.Fatalf("plain metrics = %+v, %v", m2, err)
	}
	st, err = c.Status("web/a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateScheduled || st.Result == nil {
		t.Errorf("status = %+v, want scheduled with result", st)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("job list = %d entries, want 2", len(jobs))
	}
	logText, err := c.ReplayLog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(logText, workload.TraceHeader) {
		t.Errorf("replay log missing header:\n%s", logText)
	}
	d, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 2 || d.Result == nil || d.ReplayLog != logText {
		t.Errorf("drain summary = jobs %d, log match %v", d.Jobs, d.ReplayLog == logText)
	}
	// The dynamic job's schedule survives the round trip.
	if !strings.Contains(d.ReplayLog, "16x2,32") {
		t.Errorf("replay log lost the batch schedule:\n%s", d.ReplayLog)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	c, s := startServer(t, Config{Manual: true, QueueDepth: 1, TenantQuota: 2})
	codes := func(req SubmitRequest) int {
		_, err := c.Submit(req)
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("submit %+v: err = %v, want APIError", req, err)
		}
		return ae.Status
	}
	if got := codes(SubmitRequest{Network: "NopeNet", Batch: 4}); got != http.StatusBadRequest {
		t.Errorf("unknown network -> %d, want 400", got)
	}
	if _, err := c.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	if got := codes(small("t", "a")); got != http.StatusConflict {
		t.Errorf("duplicate -> %d, want 409", got)
	}
	if got := codes(small("t", "b")); got != http.StatusTooManyRequests {
		t.Errorf("queue full -> %d, want 429", got)
	}
	s.Advance(0)
	if _, err := c.Submit(small("t", "b")); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	if got := codes(small("t", "c")); got != http.StatusTooManyRequests {
		t.Errorf("quota -> %d, want 429", got)
	}
	// Sentinels survive the HTTP boundary, and the wire error is
	// self-describing.
	_, err := c.Submit(small("t", "c"))
	if !errors.Is(err, ErrQuota) {
		t.Errorf("errors.Is(ErrQuota) false across HTTP: %v", err)
	}
	if !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "quota") {
		t.Errorf("API error text uninformative: %v", err)
	}
	if _, err := c.Status("t/none"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("status of unknown job: %v, want ErrUnknownJob", err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(small("t", "late")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

// postJob sends one raw submit body through the handler and returns
// the status code and response body.
func postJob(t *testing.T, h http.Handler, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body)))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%q: Content-Type = %q", body, ct)
	}
	return rec.Code, rec.Body.String()
}

// The submit wire contract: encoding/json stream-decoder semantics on
// the way in (case-folded keys, unknown fields skipped, trailing data
// ignored) and the indented JobStatus encoding on the way out, pinned
// to golden bytes. Malformed bodies are TestDecodeSubmitRequestErrors'.
func TestHTTPSubmitWireContract(t *testing.T) {
	// Each accepted body is the same job: a fresh service answers with
	// the same 202 bytes and logs the same request line.
	const golden = "{\n  \"id\": \"acme/j1\",\n  \"tenant\": \"acme\",\n  \"state\": \"queued\",\n  \"shard\": 0,\n  \"queue_position\": 1,\n  \"seq\": -1,\n  \"arrival_ms\": 0\n}\n"
	accepted := []string{
		`{"tenant":"acme","id":"j1","network":"AlexNet","batch":16}`,
		`{"TENANT":"acme","Id":"j1","NetWork":"AlexNet","BATCH":16}`,
		`{"tenant":"acme","id":"j1","network":"AlexNet","batch":16,"extra":{"nested":[1,{"x":null}],"b":true}}`,
		`{"tenant":"acme","id":"j1","network":"AlexNet","batch":16} trailing garbage`,
	}
	var wantLog string
	for _, body := range accepted {
		s := mustNew(t, Config{Manual: true})
		code, resp := postJob(t, s.Handler(), body)
		if code != http.StatusAccepted || resp != golden {
			t.Errorf("%q -> %d\n%s\nwant 202\n%s", body, code, resp, golden)
		}
		s.Advance(0)
		if wantLog == "" {
			wantLog = s.ReplayLog()
		} else if got := s.ReplayLog(); got != wantLog {
			t.Errorf("%q logged\n%s\nwant\n%s", body, got, wantLog)
		}
	}

	// HTML-significant characters keep encoding/json's escapes.
	code, resp := postJob(t, mustNew(t, Config{Manual: true}).Handler(),
		`{"tenant":"<b>&","id":"q\"x","network":"AlexNet","batch":16}`)
	const escaped = "{\n  \"id\": \"\\u003cb\\u003e\\u0026/q\\\"x\",\n  \"tenant\": \"\\u003cb\\u003e\\u0026\",\n  \"state\": \"queued\",\n  \"shard\": 0,\n  \"queue_position\": 1,\n  \"seq\": -1,\n  \"arrival_ms\": 0\n}\n"
	if code != http.StatusAccepted || resp != escaped {
		t.Errorf("escaped submit -> %d\n%s\nwant 202\n%s", code, resp, escaped)
	}
}

// A submission whose request-log record cannot fit one WAL frame, or
// whose iteration count or batch exceeds the workload bounds, is a bad
// request, not a crash of the sequencer or a drain stalled for hours,
// and the service keeps sequencing afterwards.
func TestOversizedSubmitRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, walConfig(dir, 1))
	huge := strings.Repeat("a", workload.MaxFramePayload+10)
	for name, req := range map[string]SubmitRequest{
		"id":              small("t", huge),
		"tenant":          small(huge, "j"),
		"idempotency_key": {Tenant: "t", ID: "k", Network: "AlexNet", Batch: 16, IdempotencyKey: huge[:workload.MaxFramePayload-4]},
		"iterations":      {Tenant: "t", ID: "i", Network: "AlexNet", Batch: 16, Iterations: workload.MaxIterations + 1},
		"huge iterations": {Tenant: "t", ID: "i", Network: "AlexNet", Batch: 16, Iterations: 1_000_000_000_000},
		"batch":           {Tenant: "t", ID: "b", Network: "AlexNet", Batch: workload.MaxBatch + 1},
		"batch 1<<50":     {Tenant: "t", ID: "b", Network: "AlexNet", Batch: 1 << 50},
		"batch 1<<60":     {Tenant: "t", ID: "b", Network: "AlexNet", Batch: 1 << 60},
		"schedule":        {Tenant: "t", ID: "s", Network: "AlexNet", Schedule: fmt.Sprintf("16,%d", 1<<58)},
	} {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("oversized %s: err = %v, want ErrBadRequest", name, err)
		}
	}

	// Over HTTP the body itself is capped at the frame size, even when
	// the bulk is an unknown field the decoder would skip.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"tenant":"t","id":"` + huge + `","network":"AlexNet","batch":16}`,
		`{"tenant":"t","id":"pad","network":"AlexNet","batch":16,"pad":"` + huge + `"}`,
		`{"tenant":"t","id":"i","network":"AlexNet","batch":16,"iterations":1000000000000}`,
		`{"tenant":"t","id":"b","network":"AlexNet","batch":4503599627370496}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ae apiError
		if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || resp.StatusCode != http.StatusBadRequest || ae.Code != "bad_request" {
			t.Errorf("oversized HTTP submit %.40s... -> %d %+v (%v), want 400 bad_request", body, resp.StatusCode, ae, err)
		}
		resp.Body.Close()
	}

	// The widest id that still fits is accepted, sequenced and recovered.
	fixed := workload.FormatJob(workload.TraceJob{ID: "t/", ArrivalMS: math.MaxInt64, Network: "AlexNet", Batch: 16, Iterations: 1})
	widest := huge[:workload.MaxFramePayload-len(fixed)]
	if _, err := s.Submit(small("t", widest+"a")); !errors.Is(err, ErrBadRequest) {
		t.Errorf("one byte over the frame: err = %v, want ErrBadRequest", err)
	}
	for _, req := range []SubmitRequest{small("t", widest), small("t", "after")} {
		st, err := s.Submit(req)
		if err != nil || st.Seq < 0 || !st.Durable {
			t.Fatalf("submit %.20s...: %+v, %v; want sequenced and durable", req.ID, st, err)
		}
	}
	want := drainClose(t, s)
	rec, err := RecoverWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := workload.FormatTrace(rec.Jobs); rec.Torn != nil || got != want {
		t.Errorf("recovered log differs from the served one (%d vs %d bytes, torn %+v)", len(got), len(want), rec.Torn)
	}
	if jobs, err := workload.ParseTrace(strings.NewReader(want)); err != nil || len(jobs) != 2 {
		t.Errorf("served log replays to %d jobs, %v; want 2", len(jobs), err)
	}
}

// The load generator drives the full HTTP stack and its report adds up.
func TestRunLoadAgainstService(t *testing.T) {
	c, s := startServer(t, Config{QueueDepth: 16})
	templates := []workload.TraceJob{
		{Network: "AlexNet", Batch: 16, Iterations: 1},
		{Network: "AlexNet", Batch: 32, Iterations: 2, Priority: 3},
		{Network: "AlexNet", BatchSchedule: workload.Schedule{16, 16, 32}, Batch: 32, Iterations: 3},
	}
	rep, err := RunLoad(LoadConfig{
		Target: c, Clients: 3, JobsPerClient: 5, Templates: templates, Drain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 15 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 15 submitted", rep)
	}
	if rep.Drained == nil || rep.Drained.Jobs != 15 {
		t.Fatalf("drain summary = %+v, want 15 jobs", rep.Drained)
	}
	if rep.Throughput <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("latency stats implausible: %+v", rep)
	}
	// The drained service's log replays to the drain summary's result.
	trace, err := workload.ParseTrace(strings.NewReader(rep.Drained.ReplayLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 15 {
		t.Fatalf("replay log holds %d jobs, want 15", len(trace))
	}
	fresh, err := sched.NewScheduler(s.Cluster(), sched.Packing)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Run(sched.JobsFromTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Makespan != rep.Drained.Result.Makespan || replayed.Utilization != rep.Drained.Result.Utilization {
		t.Error("replay of load-generated log differs from drain result")
	}
}

// Quota denials surface in the load report instead of failing the run.
func TestRunLoadQuota(t *testing.T) {
	c, _ := startServer(t, Config{TenantQuota: 2})
	rep, err := RunLoad(LoadConfig{
		Target: c, Clients: 2, JobsPerClient: 4,
		Templates: []workload.TraceJob{{Network: "AlexNet", Batch: 16, Iterations: 1}},
		Drain:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 4 || rep.QuotaDenied != 4 {
		t.Errorf("report = %+v, want 4 submitted + 4 quota-denied", rep)
	}
}
