package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestRequestValidation drives every endpoint's rejection paths: each bad
// request must come back as a 400 with a structured error body — never a
// 500, never a silent partial result.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})

	bigBatch := `{"requests":[` + strings.Repeat(`{"class":"IUP"},`, 4) + `{"class":"IUP"}]}`

	cases := []struct {
		name      string
		path      string
		body      string
		wantCode  string
		wantIndex int // -1: no index expected
	}{
		{"classify unknown arch field", "/v1/classify", `{"requests":[{"arch":{"name":"X","ips":"1","dps":"1","bogus":1}}]}`, CodeBadRequest, -1},
		{"classify missing name", "/v1/classify", `{"requests":[{"arch":{"ips":"1","dps":"1"}}]}`, CodeInvalid, 0},
		{"classify bad cell", "/v1/classify", `{"requests":[{"arch":{"name":"X","ips":"???","dps":"1"}}]}`, CodeInvalid, 0},
		{"classify negative n", "/v1/classify", `{"requests":[{"arch":{"name":"X","ips":"1","dps":"1"},"n":-1}]}`, CodeInvalid, 0},
		{"flexibility unknown class", "/v1/flexibility", `{"requests":[{"class":"ZZZ-IX"}]}`, CodeInvalid, 0},
		{"flexibility unknown compare", "/v1/flexibility", `{"requests":[{"class":"IUP","compare_to":"nope"}]}`, CodeInvalid, 0},
		{"flexibility bad index in batch", "/v1/flexibility", `{"requests":[{"class":"IUP"},{"class":"bad"}]}`, CodeInvalid, 1},
		{"estimate neither class nor arch", "/v1/estimate", `{"requests":[{}]}`, CodeInvalid, 0},
		{"estimate both class and arch", "/v1/estimate", `{"requests":[{"class":"IUP","arch":"MorphoSys"}]}`, CodeInvalid, 0},
		{"estimate unknown arch", "/v1/estimate", `{"requests":[{"arch":"NoSuchMachine"}]}`, CodeInvalid, 0},
		{"estimate n too large", "/v1/estimate", fmt.Sprintf(`{"requests":[{"class":"IUP","n":%d}]}`, maxEstimateN+1), CodeInvalid, 0},
		{"simulate unknown kernel", "/v1/simulate", `{"requests":[{"class":"IUP","kernel":"sort"}]}`, CodeInvalid, 0},
		{"simulate unknown class", "/v1/simulate", `{"requests":[{"class":"QQQ","kernel":"vecadd"}]}`, CodeInvalid, 0},
		{"simulate n too large", "/v1/simulate", fmt.Sprintf(`{"requests":[{"class":"IUP","kernel":"vecadd","n":%d}]}`, maxSimulateN+1), CodeInvalid, 0},
		{"simulate procs too large", "/v1/simulate", fmt.Sprintf(`{"requests":[{"class":"IMP-XVI","kernel":"vecadd","procs":%d}]}`, maxSimulateProcs+1), CodeInvalid, 0},
		{"simulate retired backend field", "/v1/simulate", `{"requests":[{"class":"IUP","kernel":"vecadd","backend":"compiled"}]}`, CodeBadRequest, -1},
		{"simulate negative procs", "/v1/simulate", `{"requests":[{"class":"IMP-XVI","kernel":"vecadd","procs":-2}]}`, CodeInvalid, 0},
		{"simulate budget over max cycles", "/v1/simulate", fmt.Sprintf(`{"requests":[{"class":"IMP-XVI","kernel":"matmul","n":%d}]}`, maxSimulateN), CodeInvalid, 0},
		{"conformance procs not power of two", "/v1/conformance", `{"requests":[{"n":64,"procs":6}]}`, CodeInvalid, 0},
		{"conformance procs does not divide n", "/v1/conformance", `{"requests":[{"n":30,"procs":4}]}`, CodeInvalid, 0},
		{"conformance n too large", "/v1/conformance", fmt.Sprintf(`{"requests":[{"n":%d,"procs":4}]}`, maxConformanceN*2), CodeInvalid, 0},
		{"conformance too many seeds", "/v1/conformance", fmt.Sprintf(`{"requests":[{"seeds":%d}]}`, maxConformanceSeeds+1), CodeInvalid, 0},
		{"conformance retired backend field", "/v1/conformance", `{"requests":[{"kernels":["dot"],"backend":"interp"}]}`, CodeBadRequest, -1},
		{"flexbench procs not power of two", "/v1/flexbench", `{"requests":[{"n":64,"procs":6}]}`, CodeInvalid, 0},
		{"flexbench procs does not divide n", "/v1/flexbench", `{"requests":[{"n":30,"procs":4}]}`, CodeInvalid, 0},
		{"flexbench n too large", "/v1/flexbench", fmt.Sprintf(`{"requests":[{"n":%d}]}`, maxFlexbenchN*2), CodeInvalid, 0},
		{"flexbench retired backend field", "/v1/flexbench", `{"requests":[{"n":16,"backend":"interp"}]}`, CodeBadRequest, -1},
		{"flexbench unknown item field", "/v1/flexbench", `{"requests":[{"n":16,"cells":true}]}`, CodeBadRequest, -1},
		{"survey n without run", "/v1/survey", `{"requests":[{"n":64}]}`, CodeInvalid, 0},
		{"survey n too large", "/v1/survey", fmt.Sprintf(`{"requests":[{"run":true,"n":%d}]}`, maxSimulateN+1), CodeInvalid, 0},
		{"empty batch", "/v1/simulate", `{"requests":[]}`, CodeEmptyBatch, -1},
		{"missing requests key", "/v1/simulate", `{}`, CodeEmptyBatch, -1},
		{"oversized batch", "/v1/flexibility", bigBatch, CodeBatchTooLarge, -1},
		{"not json", "/v1/classify", `this is not json`, CodeBadRequest, -1},
		{"unknown envelope field", "/v1/classify", `{"requests":[],"extra":true}`, CodeBadRequest, -1},
		{"unknown item field", "/v1/flexibility", `{"requests":[{"class":"IUP","typo":1}]}`, CodeBadRequest, -1},
		{"item wrong type", "/v1/flexibility", `{"requests":[{"class":42}]}`, CodeBadRequest, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, ts, tc.path, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400; body: %s", status, body)
			}
			var eb ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
			}
			if eb.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q (%s)", eb.Error.Code, tc.wantCode, eb.Error.Message)
			}
			if eb.Error.Message == "" {
				t.Error("error message empty")
			}
			if tc.wantIndex >= 0 {
				if eb.Error.Index == nil || *eb.Error.Index != tc.wantIndex {
					t.Errorf("index = %v, want %d", eb.Error.Index, tc.wantIndex)
				}
			}
		})
	}
}

// TestOversizedBody pins the MaxBodyBytes guard: a body over the limit is a
// structured 400, not an I/O error mid-decode.
func TestOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	big := `{"requests":[{"class":"` + strings.Repeat("A", 2048) + `"}]}`
	status, body := post(t, ts, "/v1/flexibility", big)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error.Code != CodeBadRequest {
		t.Fatalf("want structured bad_request, got %s", body)
	}
}

// TestSimulateStaticRejection pins the checker gate on /v1/simulate: a
// request whose guest program's worst-case cycle bound exceeds the run
// budget is rejected at validation with the checker findings in the 400
// body — before this gate, such a request was admitted and burned its
// whole cycle budget in the worker pool before failing at run time.
func TestSimulateStaticRejection(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := fmt.Sprintf(`{"requests":[{"class":"IMP-XVI","kernel":"matmul","n":%d}]}`, maxSimulateN)
	status, resp := post(t, ts, "/v1/simulate", body)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body: %s", status, resp)
	}
	var eb ErrorBody
	if err := json.Unmarshal(resp, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, resp)
	}
	if eb.Error.Code != CodeInvalid {
		t.Fatalf("code = %q, want %q", eb.Error.Code, CodeInvalid)
	}
	if len(eb.Error.Findings) == 0 {
		t.Fatalf("400 body carries no findings:\n%s", resp)
	}
	f := eb.Error.Findings[0]
	if f.Check != "budget" || !strings.Contains(f.Message, "exceeds the run budget") {
		t.Fatalf("unexpected finding %+v", f)
	}
	if !strings.Contains(eb.Error.Message, "failed static verification") {
		t.Fatalf("message %q lacks the verification summary", eb.Error.Message)
	}
}
