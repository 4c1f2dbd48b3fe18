package cache

import (
	"sync"

	"repro/internal/memo"
)

// lruStore is the local half of the distributed cache: an LRU from
// canonical keys to encoded result bytes (a memo.Memo), instrumented with
// eviction and live-entry metrics. Values are immutable by contract — a
// Get returns the exact bytes a Put stored, which is what the serving
// layer's byte-identity guarantee rests on.
type lruStore struct {
	max   int
	items *memo.Memo[string, []byte]
	m     *Metrics
	// putMu orders puts, so the entries gauge ends at the live count.
	putMu sync.Mutex
}

// newLRU builds a store holding up to max entries; max <= 0 disables
// caching (get always misses, put discards).
func newLRU(max int, m *Metrics) *lruStore {
	return &lruStore{max: max, items: memo.New[string, []byte](max), m: m}
}

// get returns the bytes for key and promotes the entry. The returned slice
// is shared and must be treated as immutable.
func (s *lruStore) get(key string) ([]byte, bool) {
	if s.max <= 0 {
		return nil, false
	}
	return s.items.Lookup(key)
}

// has reports whether key is live without promoting it.
func (s *lruStore) has(key string) bool {
	return s.max > 0 && s.items.Contains(key)
}

// put stores val under key, evicting least recently used entries past the
// capacity. val must not be mutated after put.
func (s *lruStore) put(key string, val []byte) {
	if s.max <= 0 {
		return
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	evicted, size := s.items.Put(key, val)
	s.m.Evictions.Add(int64(evicted))
	s.m.Entries.Set(float64(size))
}

// len reports the number of live entries.
func (s *lruStore) len() int { return s.items.Len() }
