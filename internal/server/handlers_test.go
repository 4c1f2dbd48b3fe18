package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/modelzoo"
	"repro/internal/obs"
	"repro/internal/taxonomy"
	"repro/internal/workload"
)

// newTestServer boots the full stack on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

// post sends one batch request and returns status plus raw body.
func post(t *testing.T, ts *httptest.Server, path, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// reqBody wraps a JSON literal for http.Post.
func reqBody(s string) io.Reader { return strings.NewReader(s) }

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// decodeResults unmarshals the batch envelope and returns the item slots.
func decodeResults(t *testing.T, body []byte) []json.RawMessage {
	t.Helper()
	var env struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("response is not a batch envelope: %v\n%s", err, body)
	}
	return env.Results
}

func TestClassifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/classify", `{"requests":[
	  {"arch":{"name":"MorphoSysLike","ips":"1","dps":"64","ip_ip":"none","ip_dp":"1-64","ip_im":"1-1","dp_dm":"64-1","dp_dp":"64x64"}},
	  {"arch":{"name":"NIShape","ips":"4","dps":"1","ip_ip":"none","ip_dp":"4-1","ip_im":"4x4","dp_dm":"1-1","dp_dp":"none"}}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	if len(results) != 2 {
		t.Fatalf("want 2 results, got %d", len(results))
	}
	var first ClassifyResponse
	if err := json.Unmarshal(results[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Class != "IAP-II" || first.Flexibility == nil || *first.Flexibility != 2 || first.Error != nil {
		t.Errorf("first = %+v, want class IAP-II flexibility 2", first)
	}
	if first.AreaGE <= 0 || first.ConfigBits <= 0 {
		t.Errorf("estimate missing: %+v", first)
	}
	if len(first.Relatives) == 0 || !contains(first.Relatives, "MorphoSys") {
		t.Errorf("relatives missing MorphoSys: %v", first.Relatives)
	}
	// The NI shape is well-formed but unclassifiable: item error + nearest
	// suggestions, and the valid item above is unaffected.
	var second ClassifyResponse
	if err := json.Unmarshal(results[1], &second); err != nil {
		t.Fatal(err)
	}
	if second.Error == nil || len(second.Nearest) == 0 {
		t.Errorf("NI shape: want item error with suggestions, got %+v", second)
	}
}

func TestFlexibilityEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/flexibility", `{"requests":[
	  {"class":"IMP-XVI"},
	  {"class":"USP","compare_to":"IMP-XVI"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var plain, compared FlexibilityResponse
	if err := json.Unmarshal(results[0], &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Class != "IMP-XVI" || plain.Flexibility != 6 || !plain.Implementable {
		t.Errorf("IMP-XVI = %+v, want flexibility 6", plain)
	}
	if err := json.Unmarshal(results[1], &compared); err != nil {
		t.Fatal(err)
	}
	if compared.Comparable == nil || !*compared.Comparable {
		t.Errorf("USP vs IMP-XVI must be comparable: %+v", compared)
	}
	if compared.MoreFlexible == nil || !*compared.MoreFlexible {
		t.Errorf("USP must be more flexible than IMP-XVI: %+v", compared)
	}
}

func TestEstimateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/estimate", `{"requests":[
	  {"class":"IUP","n":1},
	  {"arch":"MorphoSys"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var byClass, byArch EstimateResponse
	if err := json.Unmarshal(results[0], &byClass); err != nil {
		t.Fatal(err)
	}
	// The paper's Eq 1 IUP n=1 figure, pinned by cmd/estimate's tests too.
	if byClass.Class != "IUP" || byClass.AreaGE != 55128 || byClass.ConfigBits != 144 {
		t.Errorf("IUP estimate = %+v", byClass)
	}
	if len(byClass.AreaTerms) == 0 || len(byClass.BitTerms) == 0 {
		t.Errorf("term breakdown missing: %+v", byClass)
	}
	if err := json.Unmarshal(results[1], &byArch); err != nil {
		t.Fatal(err)
	}
	if byArch.DPs != 64 {
		t.Errorf("MorphoSys estimate must use printed DP count 64, got %+v", byArch)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/simulate", `{"requests":[
	  {"class":"IUP","kernel":"vecadd","n":64},
	  {"class":"IAP-II","kernel":"dot","n":64,"procs":4},
	  {"class":"USP","kernel":"vecadd","n":16},
	  {"class":"DMP-IV","kernel":"matmul"}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var iup, iap, usp, bad SimulateResponse
	for i, dst := range []*SimulateResponse{&iup, &iap, &usp, &bad} {
		if err := json.Unmarshal(results[i], dst); err != nil {
			t.Fatal(err)
		}
	}
	if iup.Cycles <= 0 || iup.Instructions <= 0 || !iup.MetricsChecked {
		t.Errorf("IUP run = %+v", iup)
	}
	// vecadd output head: a[i]+b[i] with the canonical generators.
	if len(iup.OutputHead) != 8 || iup.OutputHead[0] != 1+2 {
		t.Errorf("IUP output head = %v", iup.OutputHead)
	}
	if iap.Cycles <= 0 || !iap.MetricsChecked {
		t.Errorf("IAP run = %+v", iap)
	}
	if usp.Cycles <= 0 || usp.MetricsChecked {
		t.Errorf("USP run must be metrics-exempt: %+v", usp)
	}
	// matmul on a data-flow class: a per-item run failure, not a batch
	// failure — and the other items are intact.
	if bad.Error == nil || bad.Error.Code != CodeRunFailed {
		t.Errorf("DMP matmul: want run_failed item error, got %+v", bad)
	}
}

// TestSimulateServesKernelTable: the served kernels are the matrix's —
// reduce is sum(a), and ISP vecadd runs, passes the admission check and is
// cross-checked like every traced class.
func TestSimulateServesKernelTable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/simulate", `{"requests":[
	  {"class":"IUP","kernel":"reduce","n":4,"procs":1},
	  {"class":"ISP-IV","kernel":"vecadd","n":16,"procs":4}
	]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var reduce, isp SimulateResponse
	for i, dst := range []*SimulateResponse{&reduce, &isp} {
		if err := json.Unmarshal(results[i], dst); err != nil {
			t.Fatal(err)
		}
	}
	if len(reduce.OutputHead) != 1 || reduce.OutputHead[0] != 1+2+3+4 {
		t.Errorf("IUP reduce output head = %v, want [10]", reduce.OutputHead)
	}
	if isp.Error != nil || isp.Cycles <= 0 || !isp.MetricsChecked {
		t.Errorf("ISP-IV vecadd = %+v", isp)
	}
}

func TestConformanceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/conformance",
		`{"requests":[{"n":32,"procs":4,"seeds":2,"kernels":["vecadd"],"classes":["IUP","IAP"]}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var resp ConformanceResponse
	if err := json.Unmarshal(results[0], &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Pass {
		t.Errorf("conformance suite failed: %s", body[:min(len(body), 600)])
	}
	// vecadd across IUP (uniprocessor) + IAP (4 array subclasses) = 5 cells.
	if len(resp.Cells) != 5 {
		t.Errorf("filtered matrix has %d cells, want 5", len(resp.Cells))
	}
	if len(resp.Lockstep) != 2 {
		t.Errorf("lockstep has %d results, want 2", len(resp.Lockstep))
	}
	if len(resp.Summary) == 0 {
		t.Error("summary missing")
	}
}

// TestConformanceRedirectsHeavySweeps pins the sync/async split: the full
// 112-cell matrix no longer runs on the request path — the 400 names the
// async job API so clients know where the campaign moved.
func TestConformanceRedirectsHeavySweeps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"requests":[{"n":32,"procs":4}]}`,            // unfiltered matrix: 112 cells
		`{"requests":[{"n":32,"procs":4,"seeds":17}]}`, // sweep over the sync cap
	} {
		status, resp := post(t, ts, "/v1/conformance", body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400; body: %s", body, status, resp)
		}
		if !bytes.Contains(resp, []byte("POST /v1/jobs")) {
			t.Errorf("%s: rejection must point at the job API: %s", body, resp)
		}
	}
}

func TestSurveyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, body := post(t, ts, "/v1/survey", `{"requests":[{},{"run":true,"n":256}]}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	results := decodeResults(t, body)
	var derived, executed SurveyResponse
	if err := json.Unmarshal(results[0], &derived); err != nil {
		t.Fatal(err)
	}
	if len(derived.Rows) != 25 {
		t.Fatalf("survey has %d rows, want 25", len(derived.Rows))
	}
	foundMorpho := false
	for _, row := range derived.Rows {
		if row.Name == "MorphoSys" {
			foundMorpho = true
			if row.DerivedClass != "IAP-II" || !row.NameMatches {
				t.Errorf("MorphoSys row = %+v", row)
			}
		}
		if row.Cycles != 0 {
			t.Errorf("derive-only row %s carries cycles", row.Name)
		}
	}
	if !foundMorpho {
		t.Error("MorphoSys missing from survey")
	}
	if err := json.Unmarshal(results[1], &executed); err != nil {
		t.Fatal(err)
	}
	for _, row := range executed.Rows {
		if row.Cycles <= 0 || row.Processors <= 0 {
			t.Errorf("executed row %s has no run stats: %+v", row.Name, row)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(data), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, data)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Generate some traffic first.
	post(t, ts, "/v1/flexibility", `{"requests":[{"class":"IUP"}]}`)
	post(t, ts, "/v1/flexibility", `{"requests":[{"class":"IUP"}]}`)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`repro_http_requests_total{code="200",endpoint="/v1/flexibility"} 2`,
		`repro_cache_hits_total{endpoint="/v1/flexibility"} 1`,
		`repro_cache_misses_total{endpoint="/v1/flexibility"} 1`,
		"repro_http_request_seconds_bucket",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("prom exposition missing %q:\n%s", want, text)
		}
	}

	jresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var series []map[string]any
	if err := json.NewDecoder(jresp.Body).Decode(&series); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if len(series) == 0 {
		t.Error("metrics JSON empty")
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on batch endpoint: %d", resp.StatusCode)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeMethod {
		t.Fatalf("want structured method error, got %s", body)
	}
}

// TestPanicIsolation pins the outermost recovery middleware: a handler
// panic becomes a structured 500, not a torn connection, and the server
// keeps serving afterwards.
func TestPanicIsolation(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.mux.HandleFunc("/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic handler: %d %s", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeInternal {
		t.Fatalf("want structured internal error, got %s", body)
	}
	// The server survives: a normal endpoint still works.
	status, _ := post(t, ts, "/v1/flexibility", `{"requests":[{"class":"IUP"}]}`)
	if status != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d", status)
	}
}

// TestItemPanicError pins the inner fence's encoding: a panic caught by the
// exec pool surfaces as an internal item error, any other run failure as
// run_failed — both confined to the item's slot.
func TestItemPanicError(t *testing.T) {
	raw := marshalItemError(&exec.PanicError{Value: "kaboom"})
	var ie ItemError
	if err := json.Unmarshal(raw, &ie); err != nil {
		t.Fatal(err)
	}
	if ie.Error == nil || ie.Error.Code != CodeInternal {
		t.Errorf("panic item = %s", raw)
	}
	raw = marshalItemError(errors.New("plain failure"))
	if err := json.Unmarshal(raw, &ie); err != nil {
		t.Fatal(err)
	}
	if ie.Error == nil || ie.Error.Code != CodeRunFailed {
		t.Errorf("plain failure item = %s", raw)
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// TestSimulateCrossCheckNamesMetric: a served run whose stats disagree
// with its trace fails with the mismatched metric named, and a matching
// run is marked as cross-checked.
func TestSimulateCrossCheckNamesMetric(t *testing.T) {
	c, err := taxonomy.LookupString("IMP-II")
	if err != nil {
		t.Fatal(err)
	}
	r := SimulateRequest{Class: "IMP-II", Kernel: "dot", N: 16, Procs: 4}
	tally := &obs.Tally{}
	res, err := modelzoo.RunKernel(c, r.Kernel, r.N, r.Procs, workload.WithTracer(tally))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := simulateResponse(c, r, res, tally)
	if err != nil || !resp.MetricsChecked {
		t.Fatalf("matching run: checked=%v err=%v", resp.MetricsChecked, err)
	}
	res.Stats.Messages++
	if _, err := simulateResponse(c, r, res, tally); err == nil || !strings.Contains(err.Error(), obs.MetricMessages) {
		t.Fatalf("drifted run: error %v does not name %s", err, obs.MetricMessages)
	}
}
