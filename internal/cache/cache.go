// Package cache is the distributed result cache of the serving tier: a
// sharded, peer-filled cache that makes N cmd/serve replicas behave as one
// cache.
//
// Every cacheable unit of work is identified by a canonical key — the
// SHA-256 of the endpoint name and the item's canonical (defaults-applied,
// re-marshaled) request encoding — so semantically identical requests hash
// identically on every replica. Consistent hashing over that key assigns
// each key one owner replica; a replica that misses locally asks the owner
// to fill (the groupcache shape: the stampede for a hot key lands on one
// node, computes once, and fans back out), and keeps the returned bytes in
// its own LRU so hot keys serve locally everywhere. Peer unavailability
// degrades to a local compute — the mesh is an optimisation, never a
// correctness dependency — and simulations are deterministic, so the bytes
// are identical whichever replica computed them.
//
// A singleflight group coalesces concurrent misses for one key: whatever
// mixture of local requests and peer fill requests races on a cold key, the
// loader runs once and every waiter shares the bytes. The package is
// determinism-gated (internal/analysis): key derivation, ring placement and
// coalescing contain no wall-clock reads, no goroutines and no map-order
// dependence, so cache routing is a pure function of the key and the peer
// set.
package cache

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// FillPath is the route replicas serve peer fill requests on. It is an
// internal mesh endpoint: deploy replicas on a trusted network.
const FillPath = "/internal/cache/fill"

// maxFillBody bounds a peer fill request body; canonical items are small.
const maxFillBody = 1 << 20

// Loader computes the cacheable bytes for one canonical item. It must be
// deterministic in (endpoint, canonical) — byte-identity across replicas
// rests on it — and is only invoked on a cache miss, at most once per key
// per stampede.
type Loader func(ctx context.Context, endpoint string, canonical []byte) ([]byte, error)

// Outcome classifies how a Fetch was satisfied, for spans and tests.
type Outcome string

// Fetch outcomes.
const (
	// OutcomeComputed: this replica owned the key (or runs alone) and ran
	// the loader.
	OutcomeComputed Outcome = "computed"
	// OutcomePeerHit: the owner replica served the key from its cache.
	OutcomePeerHit Outcome = "peer-hit"
	// OutcomePeerFill: the owner replica computed the key on demand.
	OutcomePeerFill Outcome = "peer-fill"
	// OutcomeFallback: the owner was unreachable; computed locally.
	OutcomeFallback Outcome = "peer-fallback"
	// OutcomeCoalesced: another in-flight Fetch for the same key supplied
	// the bytes.
	OutcomeCoalesced Outcome = "coalesced"
)

// Config assembles a Cache.
type Config struct {
	// Self is this replica's own base URL as it appears in Peers. Empty
	// with empty Peers means single-node operation.
	Self string
	// Peers lists every replica's base URL, including Self. Order does not
	// matter: the ring sorts. Empty means single-node operation.
	Peers []string
	// Entries is the LRU capacity (<= 0 disables local caching; Fetch then
	// always recomputes or re-fills, still coalesced).
	Entries int
	// Loader computes missing values. Required.
	Loader Loader
	// Client issues peer fill requests (nil -> http.DefaultClient; give it
	// a timeout in production).
	Client *http.Client
	// Metrics receives the cache counters (nil -> counters are dropped).
	Metrics *Metrics
}

// Cache is the sharded, peer-filled result cache. All methods are safe for
// concurrent use.
type Cache struct {
	self   string
	ring   *ring
	lru    *lruStore
	flight *flightGroup
	loader Loader
	client *http.Client
	m      *Metrics
}

// New builds a Cache. It errors when Peers is non-empty but Self is not
// one of them (a replica must know which shard it is).
func New(cfg Config) (*Cache, error) {
	if cfg.Loader == nil {
		return nil, fmt.Errorf("cache: Config.Loader is required")
	}
	self := normalizeURL(cfg.Self)
	peers := make([]string, 0, len(cfg.Peers))
	for _, p := range cfg.Peers {
		peers = append(peers, normalizeURL(p))
	}
	var rg *ring
	if len(peers) > 0 {
		found := false
		for _, p := range peers {
			found = found || p == self
		}
		if !found {
			return nil, fmt.Errorf("cache: self %q is not in the peer list %v", self, peers)
		}
		rg = newRing(peers, defaultVirtualNodes)
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	m := cfg.Metrics
	if m == nil {
		m = NewMetrics(nil)
	}
	return &Cache{
		self:   self,
		ring:   rg,
		lru:    newLRU(cfg.Entries, m),
		flight: newFlightGroup(),
		loader: cfg.Loader,
		client: client,
		m:      m,
	}, nil
}

// normalizeURL strips the trailing slash so "http://a:1/" and "http://a:1"
// hash to the same ring points on every replica.
func normalizeURL(u string) string { return strings.TrimSuffix(u, "/") }

// Key derives the canonical cache key for one item: the raw 32-byte
// SHA-256 of the endpoint name and the canonical encoding. Every replica
// derives the same key for the same canonical item — the ring, the LRU
// and the singleflight all speak this key. The digest covers the endpoint,
// so keys of different endpoints differ without a readable prefix, and it
// is kept raw rather than hex-encoded because every cached entry holds its
// key: a key is 32 bytes, not the 77 of "/v1/simulate:" and 64 hex
// digits. The key is an opaque byte string, not text to print.
func Key(endpoint string, canonical []byte) string {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(canonical)
	var sum [sha256.Size]byte
	return string(h.Sum(sum[:0]))
}

// Owner reports which replica owns key ("" in single-node operation).
func (c *Cache) Owner(key string) string {
	if c.ring == nil {
		return ""
	}
	return c.ring.owner(key)
}

// Lookup consults only the local LRU, counting a hit or miss. It is the
// request path's fast path; a miss should be followed by Fetch.
func (c *Cache) Lookup(key string) ([]byte, bool) {
	v, ok := c.lru.get(key)
	if ok {
		c.m.Hits.Inc()
	} else {
		c.m.Misses.Inc()
	}
	return v, ok
}

// Contains reports whether the local LRU holds key. Unlike Lookup it
// counts no hit or miss and leaves the entry's recency alone.
func (c *Cache) Contains(key string) bool { return c.lru.has(key) }

// Len reports the number of live local entries.
func (c *Cache) Len() int { return c.lru.len() }

// Fetch resolves one missed item, whose key is Key(endpoint, canonical)
// as the caller already derived it for its Lookup: consistent-hash routing
// to the owner replica, peer fill over HTTP, local compute when this
// replica owns the key or the owner is unreachable — all coalesced per
// key, so concurrent misses for the same key run the loader (or cross the
// network) once. The returned bytes are cached locally on success.
func (c *Cache) Fetch(ctx context.Context, key, endpoint string, canonical []byte) ([]byte, Outcome, error) {
	outcome := OutcomeCoalesced // overwritten by the leader's closure
	val, err, shared := c.flight.Do(key, func() ([]byte, error) {
		// Re-check under the flight: a fill that completed between the
		// caller's Lookup miss and this Do landed in the LRU already.
		if v, ok := c.lru.get(key); ok {
			outcome = OutcomeComputed
			return v, nil
		}
		owner := c.Owner(key)
		if owner != "" && owner != c.self {
			v, out, perr := c.fillFromPeer(ctx, owner, endpoint, canonical)
			switch {
			case perr == nil:
				outcome = out
				c.lru.put(key, v)
				return v, nil
			case out == OutcomePeerFill:
				// The owner ran the loader and it failed; determinism means
				// it fails identically here, so adopt the verdict without
				// burning a second compute.
				outcome = out
				return nil, perr
			default:
				c.m.PeerErrors.Inc()
				outcome = OutcomeFallback
			}
		} else {
			outcome = OutcomeComputed
		}
		c.m.Loads.Inc()
		v, lerr := c.loader(ctx, endpoint, canonical)
		if lerr != nil {
			return nil, lerr
		}
		c.lru.put(key, v)
		return v, nil
	})
	if shared {
		c.m.Coalesced.Inc()
		return val, OutcomeCoalesced, err
	}
	return val, outcome, err
}

// fillRequest is the peer fill wire format: the endpoint plus the item's
// canonical encoding, from which the owner re-derives the identical key.
type fillRequest struct {
	Endpoint  string          `json:"endpoint"`
	Canonical json.RawMessage `json:"canonical"`
}

// Peer fill response headers and values.
const (
	peerCacheHeader = "X-Peer-Cache"
	peerCacheHit    = "hit"
	peerCacheFill   = "fill"
)

// fillFromPeer asks the owner replica for the bytes. A nil error carries
// the bytes and whether the owner had them cached (OutcomePeerHit) or
// computed them (OutcomePeerFill). A loader failure on the owner comes
// back as OutcomePeerFill with the error — an authoritative verdict, not a
// transport failure — while any other failure tells the caller to fall
// back to a local compute.
func (c *Cache) fillFromPeer(ctx context.Context, owner, endpoint string, canonical []byte) ([]byte, Outcome, error) {
	sctx, sp := obs.StartSpan(ctx, "peer-fill")
	defer sp.End()
	body, err := json.Marshal(fillRequest{Endpoint: endpoint, Canonical: canonical})
	if err != nil {
		return nil, OutcomeFallback, err
	}
	req, err := http.NewRequestWithContext(sctx, http.MethodPost, owner+FillPath, bytes.NewReader(body))
	if err != nil {
		return nil, OutcomeFallback, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, OutcomeFallback, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBody))
	if err != nil {
		return nil, OutcomeFallback, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		if resp.Header.Get(peerCacheHeader) == peerCacheHit {
			c.m.PeerHits.Inc()
			return data, OutcomePeerHit, nil
		}
		c.m.PeerFills.Inc()
		return data, OutcomePeerFill, nil
	case http.StatusUnprocessableEntity:
		// The owner ran the loader and the item itself failed.
		c.m.PeerFills.Inc()
		return nil, OutcomePeerFill, fmt.Errorf("%s", strings.TrimSpace(string(data)))
	default:
		return nil, OutcomeFallback, fmt.Errorf("cache: peer %s answered %d", owner, resp.StatusCode)
	}
}

// FillHandler serves this replica's shard to its peers: POST FillPath with
// a fillRequest returns the bytes (X-Peer-Cache: hit|fill), computing and
// caching on demand. Loader failures answer 422 with the error text so the
// requesting replica can adopt the deterministic verdict instead of
// recomputing a guaranteed failure.
func (c *Cache) FillHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "peer fill takes POST", http.StatusMethodNotAllowed)
			return
		}
		var fr fillRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, maxFillBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fr); err != nil {
			http.Error(w, "fill request: "+err.Error(), http.StatusBadRequest)
			return
		}
		if fr.Endpoint == "" || len(fr.Canonical) == 0 {
			http.Error(w, "fill request: endpoint and canonical are required", http.StatusBadRequest)
			return
		}
		c.m.FillRequests.Inc()
		key := Key(fr.Endpoint, fr.Canonical)
		if v, ok := c.lru.get(key); ok {
			c.m.FillHits.Inc()
			w.Header().Set(peerCacheHeader, peerCacheHit)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(v)
			return
		}
		// Compute under the same flight group as local Fetches: a stampede
		// arriving over the mesh and locally still runs the loader once.
		val, err, _ := c.flight.Do(key, func() ([]byte, error) {
			if v, ok := c.lru.get(key); ok {
				return v, nil
			}
			c.m.Loads.Inc()
			v, lerr := c.loader(r.Context(), fr.Endpoint, fr.Canonical)
			if lerr != nil {
				return nil, lerr
			}
			c.lru.put(key, v)
			return v, nil
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		c.m.FillLoads.Inc()
		w.Header().Set(peerCacheHeader, peerCacheFill)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(val)
	})
}

// Metrics are the cache's obs instruments. NewMetrics registers them on a
// registry; a nil registry yields unregistered (but usable) no-op-free
// counters so library use without metrics stays cheap and nil-safe.
type Metrics struct {
	// Hits/Misses count Lookup outcomes against the local LRU.
	Hits, Misses *obs.Counter
	// Evictions counts LRU entries displaced by capacity; Entries mirrors
	// the live entry count.
	Evictions *obs.Counter
	Entries   *obs.Gauge
	// Loads counts loader invocations (the actual computations); Coalesced
	// counts Fetches that piggybacked on another in-flight load.
	Loads, Coalesced *obs.Counter
	// PeerHits/PeerFills/PeerErrors count fill round trips by outcome.
	PeerHits, PeerFills, PeerErrors *obs.Counter
	// FillRequests/FillHits/FillLoads count the peer-serving side.
	FillRequests, FillHits, FillLoads *obs.Counter
}

// Cache metric names.
const (
	MetricHits         = "repro_cache_lookup_hits_total"
	MetricMisses       = "repro_cache_lookup_misses_total"
	MetricEvictions    = "repro_cache_evictions_total"
	MetricEntries      = "repro_cache_entries"
	MetricLoads        = "repro_cache_loads_total"
	MetricCoalesced    = "repro_cache_coalesced_total"
	MetricPeerHits     = "repro_cache_peer_hits_total"
	MetricPeerFills    = "repro_cache_peer_fills_total"
	MetricPeerErrors   = "repro_cache_peer_errors_total"
	MetricFillRequests = "repro_cache_fill_requests_total"
	MetricFillHits     = "repro_cache_fill_hits_total"
	MetricFillLoads    = "repro_cache_fill_loads_total"
)

// NewMetrics registers the cache instruments on reg (nil reg -> a private
// registry, so the counters still count for tests and Fetch outcomes).
func NewMetrics(reg *obs.Registry) *Metrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Metrics{
		Hits:         reg.MustCounter(MetricHits, "local cache lookups that hit"),
		Misses:       reg.MustCounter(MetricMisses, "local cache lookups that missed"),
		Evictions:    reg.MustCounter(MetricEvictions, "cache entries evicted by LRU capacity"),
		Entries:      reg.MustGauge(MetricEntries, "live cache entries"),
		Loads:        reg.MustCounter(MetricLoads, "loader invocations (actual computations)"),
		Coalesced:    reg.MustCounter(MetricCoalesced, "fetches coalesced onto another in-flight load"),
		PeerHits:     reg.MustCounter(MetricPeerHits, "peer fills served from the owner's cache"),
		PeerFills:    reg.MustCounter(MetricPeerFills, "peer fills computed by the owner"),
		PeerErrors:   reg.MustCounter(MetricPeerErrors, "peer fills that failed over to a local compute"),
		FillRequests: reg.MustCounter(MetricFillRequests, "peer fill requests served"),
		FillHits:     reg.MustCounter(MetricFillHits, "peer fill requests served from the local cache"),
		FillLoads:    reg.MustCounter(MetricFillLoads, "peer fill requests answered by a (possibly coalesced) load"),
	}
}
