package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// decodeStd is the HTTP submit handler's decoder: one encoding/json
// stream decode (trailing data after the first value is ignored).
func decodeStd(data []byte, req *SubmitRequest) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(req)
}

// The handler's decoding of a submit body agrees with encoding/json on
// every body: posting it yields the same status, response bytes and
// logged line as posting encoding/json's decoding of it re-encoded.
func TestDecodeSubmitRequestMatchesEncodingJSON(t *testing.T) {
	cases := []string{
		`{"tenant":"acme","id":"j1","network":"AlexNet","batch":256}`,
		`{"network":"VGG16","batch":32,"priority":-2,"iterations":10,"manager":"vdnn"}`,
		`{"network":"AlexNet","schedule":"16x2,32","tenant":"dyn"}`,
		`  {  "Network" : "ResNet50" , "BATCH" : 64 }  `,
		`{"network":"AlexNet","batch":1,"unknown":{"nested":[1,2,{"x":null}],"b":true}}`,
		`{"network":"AlexNet","batch":1,"extra":"ignored","also":3.75}`,
		`{"tenant":"\u00e9\u0442\u4f60","network":"AlexNet","batch":1}`,
		`{"id":"a\\\"b\tc","network":"AlexNet","batch":1}`,
		`{"id":"\ud83d\ude00","network":"AlexNet","batch":1}`,
		`{"tenant":null,"network":"AlexNet","batch":2}`,
		`{}`,
		`null`,
		`{"network":"AlexNet","batch":-5}`,
		`{"network":"AlexNet","batch":1} trailing garbage`,
	}
	for _, body := range cases {
		var want SubmitRequest
		if err := decodeStd([]byte(body), &want); err != nil {
			t.Fatalf("%s: encoding/json refused it: %v", body, err)
		}
		canon, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, ref := mustNew(t, Config{Manual: true}), mustNew(t, Config{Manual: true})
		gotCode, gotResp := postJob(t, got.Handler(), body)
		refCode, refResp := postJob(t, ref.Handler(), string(canon))
		if gotCode != refCode || gotResp != refResp {
			t.Errorf("%s -> %d %s\nencoding/json's %s -> %d %s", body, gotCode, gotResp, canon, refCode, refResp)
		}
		got.Advance(0)
		ref.Advance(0)
		if g, r := got.ReplayLog(), ref.ReplayLog(); g != r {
			t.Errorf("%s logged\n%s\nencoding/json's %s logged\n%s", body, g, canon, r)
		}
	}
}

// Malformed submit bodies are refused by the handler's decoder as
// bad_request, before any validation of the request.
func TestDecodeSubmitRequestErrors(t *testing.T) {
	cases := []string{
		``,
		`[1,2]`,
		`"just a string"`,
		`{"network": "AlexNet"`,
		`{"network": }`,
		`{"batch": 1.5, "network":"x"}`,
		`{"batch": 1e3, "network":"x"}`,
		`{"batch": "12", "network":"x"}`,
		`{"network": 42}`,
		`{"network": "x" "batch": 1}`,
		`{network: "x"}`,
		`{"id":"unterminated`,
		`{"id":"bad \q escape"}`,
		`{"id":"trunc \u12"}`,
		"{\"id\":\"ctrl \x01 char\"}",
	}
	h := mustNew(t, Config{Manual: true}).Handler()
	for _, body := range cases {
		code, resp := postJob(t, h, body)
		var ae apiError
		if err := json.Unmarshal([]byte(resp), &ae); err != nil || code != http.StatusBadRequest ||
			ae.Code != "bad_request" || !strings.Contains(ae.Error, ": body: ") {
			t.Errorf("%q -> %d %s, want 400 bad_request from the decoder", body, code, resp)
		}
	}
}

// The handler's JobStatus responses are encoding/json's indented
// encoding, byte for byte, escapes and invalid UTF-8 included.
func TestAppendJobStatusJSONMatchesEncodingJSON(t *testing.T) {
	cases := []*JobStatus{
		{ID: "acme/j1", Tenant: "acme", State: StateQueued, Shard: 3, QueuePosition: 7, Seq: -1},
		{ID: "t/j", Tenant: "t", State: StateQueued, Seq: -1},
		{ID: `q"uote\back`, Tenant: "<tag>&amp", State: StateQueued, Seq: -1, ArrivalMS: 12345},
		{ID: "uni/\u00e9\u4f60", Tenant: "u2028\u2028u2029\u2029", State: StateRejected, Seq: 4, Reason: "bad\nreason\ttabs"},
		{ID: "bad/\xff\xfeutf8", Tenant: "t", State: StateQueued, Seq: -1},
		{ID: "d/j", Tenant: "d", State: StateScheduled, Shard: 1, Seq: 9, ArrivalMS: 9, Durable: true},
		{ID: "d/j2", Tenant: "d", State: StateQueued, Seq: -1, Deduped: true},
		{ID: "d/j3", Tenant: "d", State: StateScheduled, Seq: 0, Durable: true, Deduped: true},
	}
	for _, st := range cases {
		want, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusAccepted, st)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("status %+v:\ngot  %q\nwant %q", st, got, want)
		}
	}
}

func BenchmarkServeIngest(b *testing.B) {
	body := []byte(`{"tenant":"acme","id":"j042","network":"AlexNet","batch":256,"priority":3,"iterations":4}`)

	b.Run("decode-std", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SubmitRequest
			if err := decodeStd(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("sequence", func(b *testing.B) {
		s, err := New(Config{Cluster: testCluster(), Manual: true, QueueDepth: 1 << 20})
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]SubmitRequest, b.N)
		for i := range reqs {
			reqs[i] = SubmitRequest{Tenant: "bench", ID: fmt.Sprintf("j%d", i), Network: "AlexNet", Batch: 256}
		}
		// Warm the estimator so the dry run is out of the measurement.
		if _, err := s.Submit(SubmitRequest{Tenant: "warm", Network: "AlexNet", Batch: 256}); err != nil {
			b.Fatal(err)
		}
		s.Advance(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Submit(reqs[i]); err != nil {
				b.Fatal(err)
			}
			s.Advance(1)
		}
	})
}
