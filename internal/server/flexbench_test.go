package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/flexbench"
	"repro/internal/jobs"
)

// TestFlexbenchCacheByteIdentity pins the caching contract on the heaviest
// cached endpoint: repeating a /v1/flexbench request serves exactly the
// bytes the original miss computed.
func TestFlexbenchCacheByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"requests":[{"n":16}]}`
	status1, miss := post(t, ts, "/v1/flexbench", body)
	if status1 != http.StatusOK {
		t.Fatalf("miss status %d: %s", status1, miss)
	}
	status2, hit := post(t, ts, "/v1/flexbench", body)
	if status2 != http.StatusOK {
		t.Fatalf("hit status %d: %s", status2, hit)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from miss:\nmiss: %s\nhit:  %s", miss, hit)
	}
	reg := s.Registry()
	if h, _ := reg.CounterValue("repro_cache_hits_total", "endpoint", "/v1/flexbench"); h != 1 {
		t.Errorf("hits = %v, want 1", h)
	}
	if m, _ := reg.CounterValue("repro_cache_misses_total", "endpoint", "/v1/flexbench"); m != 1 {
		t.Errorf("misses = %v, want 1", m)
	}
}

// TestFlexbenchSaturationReturns429: with the endpoint's single slot held,
// the next measurement request is shed with a structured 429.
func TestFlexbenchSaturationReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	gate := s.limiters["/v1/flexbench"]
	if !gate.TryAcquire() {
		t.Fatal("fresh limiter must grant its slot")
	}
	resp, err := http.Post(ts.URL+"/v1/flexbench", "application/json",
		reqBody(`{"requests":[{"n":16}]}`))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429; body: %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeOverloaded {
		t.Fatalf("want structured overloaded error, got %s", body)
	}
	gate.Release()
	status, _ := post(t, ts, "/v1/flexbench", `{"requests":[{"n":16}]}`)
	if status != http.StatusOK {
		t.Errorf("endpoint did not recover after release: %d", status)
	}
}

// TestFlexbenchOverCapRedirectsToJobs: a problem size past the sync cap is
// rejected with the job-queue redirect, and submitting the same operating
// point as a "flexbench" job produces the same Result shape the sync
// endpoint serves — scored cells, Table II and survey correlations intact.
func TestFlexbenchOverCapRedirectsToJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/flexbench", `{"requests":[{"n":512}]}`)
	if status != http.StatusBadRequest {
		t.Fatalf("over-cap status = %d, want 400; body: %s", status, body)
	}
	if !bytes.Contains(body, []byte("POST /v1/jobs")) {
		t.Fatalf("over-cap rejection must point at the job queue: %s", body)
	}

	status, body = post(t, ts, "/v1/jobs", `{"kind":"flexbench","spec":{"n":16}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var j jobs.Job
	if err := json.Unmarshal(body, &j); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, ts.URL, j.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job finished %s (error %q), want done", final.State, final.Error)
	}
	var res flexbench.Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatalf("result: %v\n%s", err, final.Result)
	}
	if !res.Pass || len(res.Scores) != 42 || res.TableII.Pairs != 42 || res.Survey.Pairs != 25 {
		t.Errorf("job result = pass %v, %d scores, %d tableII pairs, %d survey pairs",
			res.Pass, len(res.Scores), res.TableII.Pairs, res.Survey.Pairs)
	}

	// The async campaign must agree with a direct measurement, byte for
	// byte, once re-marshalled: chunked execution is an implementation
	// detail, not a different experiment.
	direct, err := flexbench.Run(context.Background(), flexbench.Params{N: 16, Procs: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("job result differs from direct measurement:\njob:    %.300s\ndirect: %.300s", gotJSON, wantJSON)
	}
}
