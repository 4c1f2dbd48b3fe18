package cache

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoLoader is a deterministic loader: the value is a pure function of
// (endpoint, canonical), so byte-identity across nodes is checkable.
func echoLoader(ctx context.Context, endpoint string, canonical []byte) ([]byte, error) {
	return []byte(fmt.Sprintf(`{"ep":%q,"req":%s}`, endpoint, canonical)), nil
}

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.Loader == nil {
		cfg.Loader = echoLoader
	}
	if cfg.Entries == 0 {
		cfg.Entries = 128
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyCanonical(t *testing.T) {
	k1 := Key("/v1/x", []byte("payload"))
	k2 := Key("/v1/x", []byte("payload"))
	if k1 != k2 {
		t.Error("same input must produce the same key")
	}
	if Key("/v1/y", []byte("payload")) == k1 {
		t.Error("endpoint must be part of the key")
	}
	if Key("/v1/x", []byte("other")) == k1 {
		t.Error("payload must be part of the key")
	}
	// The key is the raw digest, whatever the endpoint's length.
	if k := Key("/v1/simulate", []byte("payload")); len(k) != 32 {
		t.Errorf("key %q is %d bytes, want a raw 32-byte digest", k, len(k))
	}
}

func TestLRUEvictionCounters(t *testing.T) {
	m := NewMetrics(nil)
	s := newLRU(2, m)
	s.put("a", []byte("1"))
	s.put("b", []byte("2"))
	if _, ok := s.get("a"); !ok {
		t.Fatal("a evicted too early")
	}
	s.put("c", []byte("3")) // a was promoted; b evicted
	if _, ok := s.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := s.get("a"); !ok {
		t.Error("a should survive (promoted)")
	}
	if got := m.Evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if got := m.Entries.Value(); got != 2 {
		t.Errorf("entries gauge = %v, want 2", got)
	}
	s.put("c", []byte("3'")) // overwrite: no eviction, no growth
	if got := m.Evictions.Value(); got != 1 {
		t.Errorf("evictions after overwrite = %d, want 1", got)
	}
	if s.len() != 2 {
		t.Errorf("len = %d, want 2", s.len())
	}
}

func TestLRUDisabled(t *testing.T) {
	s := newLRU(0, NewMetrics(nil))
	s.put("a", []byte("1"))
	if _, ok := s.get("a"); ok {
		t.Error("disabled store must always miss")
	}
}

// TestRingDeterministic pins the consistent-hash contract: every replica,
// whatever order its peer list arrives in, derives the same owner for every
// key, and each peer owns a non-trivial share of the space.
func TestRingDeterministic(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	shuffled := []string{"http://c:1", "http://a:1", "http://b:1"}
	r1 := newRing(peers, defaultVirtualNodes)
	r2 := newRing(shuffled, defaultVirtualNodes)
	counts := map[string]int{}
	for i := 0; i < 3000; i++ {
		key := Key("/v1/simulate", []byte(strconv.Itoa(i)))
		o1, o2 := r1.owner(key), r2.owner(key)
		if o1 != o2 {
			t.Fatalf("key %d: owner depends on peer order: %q vs %q", i, o1, o2)
		}
		counts[o1]++
	}
	for _, p := range peers {
		if counts[p] < 300 {
			t.Errorf("peer %s owns only %d/3000 keys: ring badly unbalanced", p, counts[p])
		}
	}
}

// TestRingStability: removing one peer must not move keys between the
// surviving peers — only the dead peer's keys reassign.
func TestRingStability(t *testing.T) {
	full := newRing([]string{"http://a:1", "http://b:1", "http://c:1"}, defaultVirtualNodes)
	reduced := newRing([]string{"http://a:1", "http://b:1"}, defaultVirtualNodes)
	moved := 0
	for i := 0; i < 2000; i++ {
		key := Key("/v1/estimate", []byte(strconv.Itoa(i)))
		before, after := full.owner(key), reduced.owner(key)
		if before != "http://c:1" && before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved between surviving peers when c left; consistent hashing moves only the departed peer's keys", moved)
	}
}

func TestNewValidatesSelf(t *testing.T) {
	_, err := New(Config{
		Self:   "http://nope:1",
		Peers:  []string{"http://a:1", "http://b:1"},
		Loader: echoLoader,
	})
	if err == nil {
		t.Fatal("self outside the peer list must be rejected")
	}
	// Trailing-slash spellings normalize.
	if _, err := New(Config{
		Self:   "http://a:1/",
		Peers:  []string{"http://a:1", "http://b:1/"},
		Loader: echoLoader,
	}); err != nil {
		t.Fatalf("trailing slash should normalize: %v", err)
	}
}

// TestSingleflightCoalesces is the stampede contract: N concurrent misses
// for one key run the loader exactly once, everyone gets the same bytes,
// and the coalesced counter accounts for the N-1 piggybackers.
func TestSingleflightCoalesces(t *testing.T) {
	const stampede = 32
	var loads atomic.Int64
	release := make(chan struct{})
	m := NewMetrics(nil)
	c := mustCache(t, Config{
		Metrics: m,
		Loader: func(ctx context.Context, ep string, canon []byte) ([]byte, error) {
			loads.Add(1)
			<-release // hold every concurrent Fetch in the same flight
			return echoLoader(ctx, ep, canon)
		},
	})

	var wg sync.WaitGroup
	results := make([][]byte, stampede)
	started := make(chan struct{}, stampede)
	canon := []byte(`{"n":64}`)
	for i := 0; i < stampede; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			v, _, err := c.Fetch(context.Background(), Key("/v1/simulate", canon), "/v1/simulate", canon)
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	for i := 0; i < stampede; i++ {
		<-started
	}
	// A goroutine signals started before it calls Fetch, so hold the
	// leader until every other caller has joined its flight.
	key := Key("/v1/simulate", canon)
	for deadline := time.Now().Add(10 * time.Second); c.flight.waiters(key) < stampede-1 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := loads.Load(); got != 1 {
		t.Errorf("loader ran %d times under a %d-way stampede, want exactly 1", got, stampede)
	}
	if got := m.Loads.Value(); got != 1 {
		t.Errorf("loads counter = %d, want 1", got)
	}
	// Everyone observed the leader's bytes. The coalesced counter counts
	// the waiters that joined while the flight was open; all N-1 of them
	// were held on the release channel, so all must have coalesced.
	if got := m.Coalesced.Value(); got != stampede-1 {
		t.Errorf("coalesced = %d, want %d", got, stampede-1)
	}
	for i := 1; i < stampede; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("stampede result %d differs from leader", i)
		}
	}
}

// twoNodeMesh builds two caches that really talk HTTP to each other,
// returning them plus their URLs. Node construction is two-phase because a
// replica must know its own URL: listeners first, caches after.
func twoNodeMesh(t *testing.T, loader Loader) (a, b *Cache, urls []string, metrics []*Metrics) {
	t.Helper()
	mux1, mux2 := http.NewServeMux(), http.NewServeMux()
	s1 := httptest.NewServer(mux1)
	s2 := httptest.NewServer(mux2)
	t.Cleanup(s1.Close)
	t.Cleanup(s2.Close)
	urls = []string{s1.URL, s2.URL}
	m1, m2 := NewMetrics(nil), NewMetrics(nil)
	a = mustCache(t, Config{Self: s1.URL, Peers: urls, Loader: loader, Metrics: m1})
	b = mustCache(t, Config{Self: s2.URL, Peers: urls, Loader: loader, Metrics: m2})
	mux1.Handle(FillPath, a.FillHandler())
	mux2.Handle(FillPath, b.FillHandler())
	return a, b, urls, []*Metrics{m1, m2}
}

// TestPeerFillByteIdentity: the same canonical item fetched on every node
// yields byte-identical values, whichever node owns the key, and the
// non-owner reaches the owner over the mesh rather than computing.
func TestPeerFillByteIdentity(t *testing.T) {
	var loads atomic.Int64
	loader := func(ctx context.Context, ep string, canon []byte) ([]byte, error) {
		loads.Add(1)
		return echoLoader(ctx, ep, canon)
	}
	a, b, urls, metrics := twoNodeMesh(t, loader)

	// Probe keys owned by each node so both directions of the mesh run.
	caches := []*Cache{a, b}
	for want := 0; want < 2; want++ {
		var canon []byte
		for i := 0; ; i++ {
			canon = []byte(fmt.Sprintf(`{"n":%d}`, i))
			if a.Owner(Key("/v1/x", canon)) == urls[want] {
				break
			}
		}
		ownerIdx, otherIdx := want, 1-want
		owner, other := caches[ownerIdx], caches[otherIdx]

		vOther, outcome, err := other.Fetch(context.Background(), Key("/v1/x", canon), "/v1/x", canon)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != OutcomePeerFill {
			t.Errorf("first non-owner fetch outcome = %s, want %s", outcome, OutcomePeerFill)
		}
		vOwner, outcome2, err := owner.Fetch(context.Background(), Key("/v1/x", canon), "/v1/x", canon)
		if err != nil {
			t.Fatal(err)
		}
		// The owner cached the value while serving the peer fill, so its own
		// Fetch finds it locally (outcome "computed" via the in-flight
		// re-check) without a second load.
		_ = outcome2
		if !bytes.Equal(vOther, vOwner) {
			t.Fatalf("peer-filled bytes differ from owner bytes:\n%s\n%s", vOther, vOwner)
		}
		// And a local hit replays the same bytes on the non-owner.
		if v, ok := other.Lookup(Key("/v1/x", canon)); !ok || !bytes.Equal(v, vOther) {
			t.Errorf("non-owner did not keep the peer-filled bytes locally")
		}
		if metrics[otherIdx].PeerFills.Value() == 0 {
			t.Errorf("non-owner recorded no peer fill")
		}
		if metrics[ownerIdx].FillRequests.Value() == 0 {
			t.Errorf("owner served no fill requests")
		}
	}
	if got := loads.Load(); got != 2 {
		t.Errorf("loader ran %d times for 2 keys across 2 nodes, want 2 (one per key, on the owner)", got)
	}
}

// TestPeerHitServedFromOwnerCache: a second non-owner node's miss for a key
// the owner already holds is answered from the owner's cache (X-Peer-Cache:
// hit), not recomputed.
func TestPeerHitServedFromOwnerCache(t *testing.T) {
	var loads atomic.Int64
	loader := func(ctx context.Context, ep string, canon []byte) ([]byte, error) {
		loads.Add(1)
		return echoLoader(ctx, ep, canon)
	}
	a, b, urls, metrics := twoNodeMesh(t, loader)
	caches := []*Cache{a, b}

	var canon []byte
	for i := 0; ; i++ {
		canon = []byte(fmt.Sprintf(`{"k":%d}`, i))
		if a.Owner(Key("/v1/y", canon)) == urls[0] {
			break
		}
	}
	if _, _, err := caches[0].Fetch(context.Background(), Key("/v1/y", canon), "/v1/y", canon); err != nil {
		t.Fatal(err) // owner computes and caches
	}
	v, outcome, err := caches[1].Fetch(context.Background(), Key("/v1/y", canon), "/v1/y", canon)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomePeerHit {
		t.Errorf("outcome = %s, want %s", outcome, OutcomePeerHit)
	}
	if want, _ := echoLoader(context.Background(), "/v1/y", canon); !bytes.Equal(v, want) {
		t.Errorf("peer-hit bytes differ from loader output")
	}
	if loads.Load() != 1 {
		t.Errorf("loader ran %d times, want 1", loads.Load())
	}
	if metrics[1].PeerHits.Value() != 1 {
		t.Errorf("peer hits = %d, want 1", metrics[1].PeerHits.Value())
	}
	if metrics[0].FillHits.Value() != 1 {
		t.Errorf("owner fill hits = %d, want 1", metrics[0].FillHits.Value())
	}
}

// TestPeerDownFallsBack: an unreachable owner degrades to a local compute,
// counted as a peer error, with the same bytes.
func TestPeerDownFallsBack(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // the port is now refused

	live := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(live.Close)

	m := NewMetrics(nil)
	c := mustCache(t, Config{
		Self:    live.URL,
		Peers:   []string{live.URL, deadURL},
		Metrics: m,
	})
	// Find a key the dead peer owns.
	var canon []byte
	for i := 0; ; i++ {
		canon = []byte(fmt.Sprintf(`{"z":%d}`, i))
		if c.Owner(Key("/v1/z", canon)) == deadURL {
			break
		}
	}
	v, outcome, err := c.Fetch(context.Background(), Key("/v1/z", canon), "/v1/z", canon)
	if err != nil {
		t.Fatalf("fallback compute failed: %v", err)
	}
	if outcome != OutcomeFallback {
		t.Errorf("outcome = %s, want %s", outcome, OutcomeFallback)
	}
	if want, _ := echoLoader(context.Background(), "/v1/z", canon); !bytes.Equal(v, want) {
		t.Errorf("fallback bytes differ from loader output")
	}
	if m.PeerErrors.Value() != 1 {
		t.Errorf("peer errors = %d, want 1", m.PeerErrors.Value())
	}
}

// TestPeerLoadErrorAdopted: when the owner's loader fails, the requester
// adopts the deterministic verdict (422) instead of recomputing the same
// failure locally.
func TestPeerLoadErrorAdopted(t *testing.T) {
	var loads atomic.Int64
	loader := func(ctx context.Context, ep string, canon []byte) ([]byte, error) {
		loads.Add(1)
		return nil, fmt.Errorf("kernel %q is not implemented", "matmul")
	}
	a, _, urls, _ := twoNodeMesh(t, loader)
	caches := map[string]*Cache{}
	_ = caches
	var canon []byte
	for i := 0; ; i++ {
		canon = []byte(fmt.Sprintf(`{"e":%d}`, i))
		if a.Owner(Key("/v1/e", canon)) == urls[1] {
			break
		}
	}
	// a is NOT the owner; its fetch crosses to b, whose loader fails.
	_, outcome, err := a.Fetch(context.Background(), Key("/v1/e", canon), "/v1/e", canon)
	if err == nil {
		t.Fatal("want the owner's loader error")
	}
	if outcome != OutcomePeerFill {
		t.Errorf("outcome = %s, want %s (authoritative verdict)", outcome, OutcomePeerFill)
	}
	if got := err.Error(); got != `kernel "matmul" is not implemented` {
		t.Errorf("error = %q, want the owner's loader error verbatim", got)
	}
	if loads.Load() != 1 {
		t.Errorf("loader ran %d times, want 1 (no local recompute of a deterministic failure)", loads.Load())
	}
}

// TestFillHandlerRejects pins the fill endpoint's input discipline.
func TestFillHandlerRejects(t *testing.T) {
	c := mustCache(t, Config{})
	h := c.FillHandler()

	get := httptest.NewRequest(http.MethodGet, FillPath, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, get)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d, want 405", w.Code)
	}

	bad := httptest.NewRequest(http.MethodPost, FillPath, bytes.NewReader([]byte(`{"endpoint":"/v1/x","canonical":{},"extra":1}`)))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, bad)
	if w.Code != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", w.Code)
	}

	empty := httptest.NewRequest(http.MethodPost, FillPath, bytes.NewReader([]byte(`{}`)))
	w = httptest.NewRecorder()
	h.ServeHTTP(w, empty)
	if w.Code != http.StatusBadRequest {
		t.Errorf("empty fill status = %d, want 400", w.Code)
	}
}

// TestSingleNodeComputes: with no peers the cache is a plain coalesced LRU.
func TestSingleNodeComputes(t *testing.T) {
	m := NewMetrics(nil)
	c := mustCache(t, Config{Metrics: m})
	canon := []byte(`{"n":1}`)
	v, outcome, err := c.Fetch(context.Background(), Key("/v1/s", canon), "/v1/s", canon)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeComputed {
		t.Errorf("outcome = %s, want %s", outcome, OutcomeComputed)
	}
	if got, ok := c.Lookup(Key("/v1/s", canon)); !ok || !bytes.Equal(got, v) {
		t.Error("computed value not cached locally")
	}
	if m.Hits.Value() != 1 {
		t.Errorf("hits = %d, want 1", m.Hits.Value())
	}
}
