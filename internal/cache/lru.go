package cache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"repro/internal/memo"
)

// lruStore is the local half of the distributed cache: an LRU from
// canonical keys to encoded result bytes (a memo.Memo), instrumented with
// eviction and live-entry metrics. A get returns the exact bytes a put
// stored, which is what the serving layer's byte-identity guarantee rests
// on. The entries hold them packed (pack.go), as strings, which are a
// word shorter than a slice in every entry.
type lruStore struct {
	max   int
	items *memo.Memo[string, string]
	m     *Metrics
	// putMu orders puts, so the entries gauge ends at the live count.
	putMu sync.Mutex
	// hot holds the expanded bytes of recently hit entries, one per slot
	// of a key's hash, so repeated hits on a key share one expansion
	// rather than allocating one each; an entry never hit has none.
	hot  [hotSlots]atomic.Pointer[expanded]
	seed maphash.Seed
}

// hotSlots is how many expanded values a store keeps for its hits.
const hotSlots = 1024

// expanded is a packed value and the bytes it expands to.
type expanded struct {
	packed string
	val    []byte
}

// newLRU builds a store holding up to max entries; max <= 0 disables
// caching (get always misses, put discards).
func newLRU(max int, m *Metrics) *lruStore {
	return &lruStore{max: max, items: memo.New[string, string](max), m: m, seed: maphash.MakeSeed()}
}

// get returns the bytes for key and promotes the entry. The returned slice
// is shared and must be treated as immutable.
func (s *lruStore) get(key string) ([]byte, bool) {
	if s.max <= 0 {
		return nil, false
	}
	v, ok := s.items.Lookup(key)
	if !ok {
		return nil, false
	}
	slot := &s.hot[maphash.String(s.seed, key)%hotSlots]
	if e := slot.Load(); e != nil && e.packed == v {
		return e.val, true
	}
	e := &expanded{packed: v, val: expand(v)}
	slot.Store(e)
	return e.val, true
}

// has reports whether key is live without promoting it.
func (s *lruStore) has(key string) bool {
	return s.max > 0 && s.items.Contains(key)
}

// put stores val under key, evicting least recently used entries past the
// capacity. The store keeps its own packed copy of val.
func (s *lruStore) put(key string, val []byte) {
	if s.max <= 0 {
		return
	}
	s.putMu.Lock()
	defer s.putMu.Unlock()
	packed := pack(val)
	evicted, size := s.items.Put(key, packed)
	s.m.Evictions.Add(int64(evicted))
	s.m.Entries.Set(float64(size))
}

// len reports the number of live entries.
func (s *lruStore) len() int { return s.items.Len() }
