// Package memo is the repository's one bounded LRU: the program staging
// layers (workload's assembly memo, machine's compile memo, modelzoo's
// check memo) and the serving tier's local result store are each one
// Memo. A Memo maps a key to a value and hands the same value to every
// caller that asks for the key, so values are read-only by contract. It
// holds at most a fixed number of entries and evicts the least recently
// used one past that bound.
package memo

import "sync"

// Memo is a bounded, concurrency-safe LRU from keys to values.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	root   node[K, V] // sentinel: root.next is the most recently used
	items  map[K]*node[K, V]
	hits   int64
	misses int64
}

// node is one entry, linked into the recency list. Entry and list link
// are one allocation.
type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V]
}

// New returns an empty memo holding up to size entries (at least one).
func New[K comparable, V any](size int) *Memo[K, V] {
	m := &Memo[K, V]{max: max(size, 1), items: map[K]*node[K, V]{}}
	m.root.prev, m.root.next = &m.root, &m.root
	return m
}

// Get returns the value stored under key, calling build on a miss. An
// error from build is returned and nothing is stored, so a failing key is
// rebuilt (and fails again) on every call. The lock is not held while
// building: two callers missing on one key may both build, and the first
// value stored is the one every caller gets from then on.
func (m *Memo[K, V]) Get(key K, build func() (V, error)) (V, error) {
	if v, ok := m.Lookup(key); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.items[key]; ok {
		m.promote(n)
		return n.val, nil
	}
	m.insert(key, v)
	return v, nil
}

// Lookup returns the value stored under key and marks it most recently
// used, counting a hit or a miss.
func (m *Memo[K, V]) Lookup(key K) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.items[key]
	if !ok {
		m.misses++
		var zero V
		return zero, false
	}
	m.hits++
	m.promote(n)
	return n.val, true
}

// Contains reports whether key is stored, without promoting or counting.
func (m *Memo[K, V]) Contains(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.items[key]
	return ok
}

// Put stores v under key, replacing any value there, and marks it most
// recently used. It returns how many entries it evicted and the number of
// entries left.
func (m *Memo[K, V]) Put(key K, v V) (evicted, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n, ok := m.items[key]; ok {
		n.val = v
		m.promote(n)
		return 0, len(m.items)
	}
	return m.insert(key, v), len(m.items)
}

// insert adds a new entry in front and evicts past the bound, returning
// the number evicted. The caller holds the lock.
func (m *Memo[K, V]) insert(key K, v V) int {
	n := &node[K, V]{key: key, val: v}
	m.items[key] = n
	m.link(n)
	evicted := 0
	for len(m.items) > m.max {
		last := m.root.prev
		m.unlink(last)
		delete(m.items, last.key)
		evicted++
	}
	return evicted
}

// promote moves n to the front of the recency list.
func (m *Memo[K, V]) promote(n *node[K, V]) {
	if m.root.next != n {
		m.unlink(n)
		m.link(n)
	}
}

// link puts n at the front of the recency list.
func (m *Memo[K, V]) link(n *node[K, V]) {
	n.prev, n.next = &m.root, m.root.next
	n.next.prev = n
	m.root.next = n
}

// unlink takes n out of the recency list.
func (m *Memo[K, V]) unlink(n *node[K, V]) {
	n.prev.next, n.next.prev = n.next, n.prev
	n.prev, n.next = nil, nil
}

// Len reports the number of entries.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items)
}

// Max reports the bound on the number of entries.
func (m *Memo[K, V]) Max() int { return m.max }

// Lookups reports how many lookups (Get and Lookup calls) found their key
// (hits) and how many did not (misses) since the memo was made.
func (m *Memo[K, V]) Lookups() (hits, misses int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hits, m.misses
}

// Each calls f on every entry, most recently used first, until f returns
// false. The memo is locked throughout: f must not call back into it.
func (m *Memo[K, V]) Each(f func(key K, val V) bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for n := m.root.next; n != &m.root; n = n.next {
		if !f(n.key, n.val) {
			return
		}
	}
}
