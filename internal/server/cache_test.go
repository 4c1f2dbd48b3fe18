package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
)

// The LRU/key unit tests live with the cache implementation in
// internal/cache; this file pins the HTTP-level caching contract.

// TestCacheHitByteIdentity is the core caching contract: the bytes served on
// a hit are exactly the bytes the original miss produced — for the whole
// response, not just semantically equal JSON.
func TestCacheHitByteIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := `{"requests":[
	  {"class":"IAP-II","kernel":"dot","n":128,"procs":8},
	  {"class":"IMP-II","kernel":"scan","n":64,"procs":4}
	]}`
	status1, miss := post(t, ts, "/v1/simulate", body)
	if status1 != http.StatusOK {
		t.Fatalf("miss status %d: %s", status1, miss)
	}
	status2, hit := post(t, ts, "/v1/simulate", body)
	if status2 != http.StatusOK {
		t.Fatalf("hit status %d: %s", status2, hit)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit differs from miss:\nmiss: %s\nhit:  %s", miss, hit)
	}
	reg := s.Registry()
	if h, _ := reg.CounterValue("repro_cache_hits_total", "endpoint", "/v1/simulate"); h != 2 {
		t.Errorf("hits = %v, want 2", h)
	}
	if m, _ := reg.CounterValue("repro_cache_misses_total", "endpoint", "/v1/simulate"); m != 2 {
		t.Errorf("misses = %v, want 2", m)
	}
}

// TestCacheKeyNormalization: field order, whitespace, and spelling out the
// defaults must all map to the same cache entry, and the response bytes stay
// byte-identical across those spellings.
func TestCacheKeyNormalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	variants := []string{
		`{"requests":[{"class":"IUP","kernel":"vecadd","n":64,"procs":4}]}`,
		`{"requests":[{"procs":4,"n":64,"kernel":"vecadd","class":"IUP"}]}`,
		`{ "requests" : [ { "class" : "IUP" , "kernel" : "vecadd" } ] }`, // n, procs defaulted
	}
	var first []byte
	for i, v := range variants {
		status, body := post(t, ts, "/v1/simulate", v)
		if status != http.StatusOK {
			t.Fatalf("variant %d status %d: %s", i, status, body)
		}
		if i == 0 {
			first = body
			continue
		}
		if !bytes.Equal(first, body) {
			t.Errorf("variant %d not byte-identical:\nwant %s\ngot  %s", i, first, body)
		}
	}
	reg := s.Registry()
	if m, _ := reg.CounterValue("repro_cache_misses_total", "endpoint", "/v1/simulate"); m != 1 {
		t.Errorf("misses = %v, want 1 (all variants share one canonical key)", m)
	}
	if h, _ := reg.CounterValue("repro_cache_hits_total", "endpoint", "/v1/simulate"); h != 2 {
		t.Errorf("hits = %v, want 2", h)
	}
}

// TestCacheEviction: a capacity-1 cache serves hits for the resident entry
// and recomputes after eviction, with identical bytes either way.
func TestCacheEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: 1})
	reqA := `{"requests":[{"class":"IUP","kernel":"vecadd","n":32,"procs":1}]}`
	reqB := `{"requests":[{"class":"IUP","kernel":"reduce","n":32,"procs":1}]}`
	_, firstA := post(t, ts, "/v1/simulate", reqA)
	post(t, ts, "/v1/simulate", reqB) // evicts A
	_, secondA := post(t, ts, "/v1/simulate", reqA)
	if !bytes.Equal(firstA, secondA) {
		t.Errorf("recomputed A differs from original:\n%s\n%s", firstA, secondA)
	}
}

// TestCacheLifecycleCounters pins the operational surface of the LRU: the
// lookup hit/miss counters, the eviction counter and the live-entry gauge
// all move with real HTTP traffic and are exported on /metrics.
func TestCacheLifecycleCounters(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 1})
	reqA := `{"requests":[{"class":"IUP","kernel":"vecadd","n":32,"procs":1}]}`
	reqB := `{"requests":[{"class":"IUP","kernel":"reduce","n":32,"procs":1}]}`
	post(t, ts, "/v1/simulate", reqA) // miss, cached
	post(t, ts, "/v1/simulate", reqA) // hit
	post(t, ts, "/v1/simulate", reqB) // miss, evicts A

	reg := s.Registry()
	if v, _ := reg.CounterValue(cache.MetricHits); v != 1 {
		t.Errorf("%s = %d, want 1", cache.MetricHits, v)
	}
	if v, _ := reg.CounterValue(cache.MetricMisses); v != 2 {
		t.Errorf("%s = %d, want 2", cache.MetricMisses, v)
	}
	if v, _ := reg.CounterValue(cache.MetricEvictions); v != 1 {
		t.Errorf("%s = %d, want 1", cache.MetricEvictions, v)
	}
	if v, _ := reg.CounterValue(cache.MetricLoads); v != 2 {
		t.Errorf("%s = %d, want 2 (each miss computed once)", cache.MetricLoads, v)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	// The capacity-1 cache holds exactly the latest entry.
	if !bytes.Contains(body, []byte(cache.MetricEntries+" 1")) {
		t.Errorf("/metrics must report %s 1", cache.MetricEntries)
	}
	if !bytes.Contains(body, []byte(cache.MetricEvictions+" 1")) {
		t.Errorf("/metrics must report %s 1", cache.MetricEvictions)
	}
}

// TestItemErrorsNotCached: a failed item must not poison the cache — but in
// a deterministic system re-running it fails identically, so what we pin is
// that the miss counter keeps climbing for the failing item while successful
// items cache normally.
func TestItemErrorsNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// matmul is not implemented for the dataflow class: a per-item run error.
	body := `{"requests":[{"class":"DMP-IV","kernel":"matmul","n":16,"procs":4}]}`
	post(t, ts, "/v1/simulate", body)
	post(t, ts, "/v1/simulate", body)
	reg := s.Registry()
	if m, _ := reg.CounterValue("repro_cache_misses_total", "endpoint", "/v1/simulate"); m != 2 {
		t.Errorf("failing item misses = %v, want 2 (errors are never cached)", m)
	}
	if h, _ := reg.CounterValue("repro_cache_hits_total", "endpoint", "/v1/simulate"); h != 0 {
		t.Errorf("failing item hits = %v, want 0", h)
	}
}

// TestValidationOnMissesOnly: decodeStage validates only the items the
// local cache does not hold — a cached item was validated by the loader
// that filled it — and its cache peek moves no hit or miss counter.
func TestValidationOnMissesOnly(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hot := `{"class":"IUP","kernel":"vecadd","n":32,"procs":1}`
	if status, body := post(t, ts, "/v1/simulate", `{"requests":[`+hot+`]}`); status != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", status, body)
	}

	var validated []int
	ep := endpointSpec[SimulateRequest, SimulateResponse]{
		path: "/v1/simulate",
		validate: func(r SimulateRequest) error {
			validated = append(validated, r.N)
			return nil
		},
	}
	body := `{"requests":[` + hot + `,{"class":"IUP","kernel":"vecadd","n":16,"procs":1},` + hot + `]}`
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body))
	var st stageTimes
	items, _, _, status := decodeStage(s, httptest.NewRecorder(), req, ep, s.metrics["/v1/simulate"], &st)
	if status != 0 || len(items) != 3 {
		t.Fatalf("decode status %d with %d items, want 0 and 3", status, len(items))
	}
	if len(validated) != 1 || validated[0] != 16 {
		t.Errorf("validated items with n = %v, want only the uncached n=16", validated)
	}
	reg := s.Registry()
	if v, _ := reg.CounterValue(cache.MetricHits); v != 0 {
		t.Errorf("%s = %d after decode, want 0", cache.MetricHits, v)
	}
	if v, _ := reg.CounterValue(cache.MetricMisses); v != 1 {
		t.Errorf("%s = %d after decode, want the warm-up's 1", cache.MetricMisses, v)
	}
}

// TestRejectedItemAmongHits: skipping validation for cached items does not
// let an invalid item through — a progcheck-rejected item still gets its
// 400 with findings when the other items of its batch are hits — and
// nothing that fails validation is ever cached.
func TestRejectedItemAmongHits(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	hot := `{"class":"IUP","kernel":"vecadd","n":32,"procs":1}`
	bad := fmt.Sprintf(`{"class":"IMP-XVI","kernel":"matmul","n":%d}`, maxSimulateN)
	if status, body := post(t, ts, "/v1/simulate", `{"requests":[`+hot+`]}`); status != http.StatusOK {
		t.Fatalf("warm-up status %d: %s", status, body)
	}
	for _, body := range []string{
		`{"requests":[` + hot + `,` + bad + `,` + hot + `]}`,
		`{"requests":[` + hot + `,` + bad + `]}`,
	} {
		status, resp := post(t, ts, "/v1/simulate", body)
		if status != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400; body: %s", status, resp)
		}
		var eb ErrorBody
		if err := json.Unmarshal(resp, &eb); err != nil {
			t.Fatalf("error body is not structured JSON: %v\n%s", err, resp)
		}
		if eb.Error.Code != CodeInvalid || eb.Error.Index == nil || *eb.Error.Index != 1 || len(eb.Error.Findings) == 0 {
			t.Fatalf("want invalid item 1 with findings, got %s", resp)
		}
	}
	if n := s.dcache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want only the valid item", n)
	}
}
