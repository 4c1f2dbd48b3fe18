package cache

import (
	"container/list"
	"sync"
)

// lruStore is the local half of the distributed cache: an LRU from
// canonical keys to encoded result bytes, instrumented with eviction and
// live-entry metrics. Values are immutable by contract — a Get returns the
// exact bytes a Put stored, which is what the serving layer's byte-identity
// guarantee rests on.
type lruStore struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	m     *Metrics
}

// lruEntry is one key -> encoded-value pair.
type lruEntry struct {
	key string
	val []byte
}

// newLRU builds a store holding up to max entries; max <= 0 disables
// caching (get always misses, put discards).
func newLRU(max int, m *Metrics) *lruStore {
	return &lruStore{max: max, ll: list.New(), items: map[string]*list.Element{}, m: m}
}

// get returns the bytes for key and promotes the entry. The returned slice
// is shared and must be treated as immutable.
func (s *lruStore) get(key string) ([]byte, bool) {
	if s.max <= 0 {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// has reports whether key is live without promoting it.
func (s *lruStore) has(key string) bool {
	if s.max <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.items[key]
	return ok
}

// put stores val under key, evicting least recently used entries past the
// capacity. val must not be mutated after put.
func (s *lruStore) put(key string, val []byte) {
	if s.max <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*lruEntry).val = val
		return
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key: key, val: val})
	for s.ll.Len() > s.max {
		last := s.ll.Back()
		s.ll.Remove(last)
		delete(s.items, last.Value.(*lruEntry).key)
		s.m.Evictions.Inc()
	}
	s.m.Entries.Set(float64(s.ll.Len()))
}

// len reports the number of live entries.
func (s *lruStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
