package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/conformance"
)

// servableEpoch is one epoch of the served simulate keys the serve-cold
// benchmark sends: every servable (class, kernel) cell of the conformance
// matrix (every simulated class but the spatial processors) at every size
// n = procs*k, procs in {4, 8} and k in [lo, hi], each once.
func servableEpoch(lo, hi int) []SimulateRequest {
	var keys []SimulateRequest
	for _, c := range conformance.Matrix() {
		if strings.HasPrefix(c.Class, "ISP") {
			continue
		}
		for _, procs := range []int{4, 8} {
			for k := lo; k <= hi; k++ {
				keys = append(keys, SimulateRequest{Class: c.Class, Kernel: c.Kernel, N: procs * k, Procs: procs})
			}
		}
	}
	return keys
}

// liveHeap is the heap that survives a collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCachedEntryBytes measures the heap a cached /v1/simulate result
// retains, over one epoch of servable keys served to a fresh server, each
// a miss: the live heap the epoch added, divided by the entries it added.
// A first epoch on another server warms what the process keeps a bounded
// amount of (staged programs, checker reports, the cache's key
// dictionary), and a few requests outside the epoch what the fresh server
// does (the flight recorder, pools). What is left grows with the requests
// a server has served, map growth included: the serve-cold benchmark
// keeps every epoch's server, so its resident memory follows it.
func TestCachedEntryBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("serves two epochs of simulations")
	}
	keys := servableEpoch(4, 16)
	serve := func(s *Server, keys []SimulateRequest) {
		h := s.Handler()
		for _, k := range keys {
			body, err := json.Marshal(BatchEnvelope[SimulateRequest]{Requests: []SimulateRequest{k}})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(body))))
			if rec.Code != http.StatusOK {
				t.Fatalf("%+v: status %d: %s", k, rec.Code, rec.Body)
			}
		}
	}
	newServer := func() *Server {
		s, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = s.Close() })
		return s
	}
	serve(newServer(), keys)
	s := newServer()
	serve(s, servableEpoch(17, 17)[:128])
	before, entries := liveHeap(), s.dcache.Len()
	serve(s, keys)
	after, added := liveHeap(), s.dcache.Len()-entries
	if added != len(keys) {
		t.Fatalf("the epoch added %d entries, want %d (every key a miss)", added, len(keys))
	}
	perEntry := (int64(after) - int64(before)) / int64(added)
	t.Logf("%d entries, %d bytes of live heap each", added, perEntry)
	if perEntry > 260 {
		t.Errorf("a cached /v1/simulate entry retains %d bytes, want at most 260", perEntry)
	}
}

// objectKeys adds the object keys of the decoded JSON value v to keys.
func objectKeys(v any, keys map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			keys[k] = true
			objectKeys(e, keys)
		}
	case []any:
		for _, e := range v {
			objectKeys(e, keys)
		}
	}
}

// TestJSONKeysCoverSimulate: every key a served /v1/simulate item carries
// is one the server adds to the result cache's key dictionary (jsonKeys),
// so every cached simulate entry packs.
func TestJSONKeysCoverSimulate(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	reqs := servableEpoch(4, 4)
	body, err := json.Marshal(BatchEnvelope[SimulateRequest]{Requests: reqs})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(body))))
	var resp struct{ Results []any }
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(reqs) {
		t.Fatalf("status %d, %d results (%v): %s", rec.Code, len(resp.Results), err, rec.Body)
	}
	served := map[string]bool{}
	objectKeys(resp.Results, served)
	if !served["net_conflict_cycles"] || !served["metrics_checked"] {
		t.Fatalf("served keys %v: want a run's stats", served)
	}
	for k := range served {
		if !slices.Contains(jsonKeys(reflect.TypeFor[SimulateResponse]()), k) {
			t.Errorf("served key %q is not in jsonKeys(SimulateResponse)", k)
		}
	}
}
