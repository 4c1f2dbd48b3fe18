package memo

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestMemoBuildsOnce: a key is built on its first Get and answered from
// the memo after that, and the lookups count both.
func TestMemoBuildsOnce(t *testing.T) {
	m := New[string, int](4)
	builds := 0
	build := func() (int, error) { builds++; return 7, nil }
	for range 3 {
		if v, err := m.Get("a", build); v != 7 || err != nil {
			t.Fatalf("Get = %d, %v; want 7, nil", v, err)
		}
	}
	if builds != 1 || m.Len() != 1 {
		t.Errorf("%d builds, %d entries; want 1 and 1", builds, m.Len())
	}
	if hits, misses := m.Lookups(); hits != 2 || misses != 1 {
		t.Errorf("lookups: %d hits, %d misses; want 2 and 1", hits, misses)
	}
}

// TestMemoErrorsAreNotMemoized: a failing build stores nothing, so the
// next Get builds again.
func TestMemoErrorsAreNotMemoized(t *testing.T) {
	m := New[string, int](4)
	boom := errors.New("boom")
	builds := 0
	for range 2 {
		if _, err := m.Get("bad", func() (int, error) { builds++; return 0, boom }); err != boom {
			t.Fatalf("Get error %v, want %v", err, boom)
		}
	}
	if builds != 2 || m.Len() != 0 {
		t.Errorf("%d builds, %d entries; want 2 and 0", builds, m.Len())
	}
}

// TestMemoEviction: the memo never holds more than its bound and evicts
// the least recently used entry; Each walks the most recent first.
func TestMemoEviction(t *testing.T) {
	m := New[int, int](3)
	get := func(k int) {
		if _, err := m.Get(k, func() (int, error) { return k * k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for k := range 3 {
		get(k)
	}
	get(0) // 0 is now the most recent, 1 the least
	get(3) // evicts 1
	if m.Len() != 3 || m.Max() != 3 {
		t.Fatalf("%d entries, bound %d; want 3 and 3", m.Len(), m.Max())
	}
	var keys []int
	m.Each(func(k, v int) bool {
		if v != k*k {
			t.Errorf("entry %d holds %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if fmt.Sprint(keys) != "[3 0 2]" {
		t.Errorf("entries most recent first: %v, want [3 0 2]", keys)
	}
	if New[int, int](0).Max() != 1 {
		t.Error("a memo of size 0 must still hold one entry")
	}
}

// TestMemoPutLookupContains: Put replaces a value in place and reports
// evictions and the live count; Lookup promotes and counts, Contains does
// neither.
func TestMemoPutLookupContains(t *testing.T) {
	m := New[string, int](2)
	if ev, n := m.Put("a", 1); ev != 0 || n != 1 {
		t.Errorf("Put(a) = %d evicted, %d live; want 0, 1", ev, n)
	}
	m.Put("b", 2)
	if ev, n := m.Put("a", 10); ev != 0 || n != 2 {
		t.Errorf("overwrite = %d evicted, %d live; want 0, 2", ev, n)
	}
	if !m.Contains("b") || m.Contains("z") {
		t.Error("Contains is wrong")
	}
	if ev, n := m.Put("c", 3); ev != 1 || n != 2 || m.Contains("b") {
		t.Errorf("Put(c) = %d evicted, %d live, b kept %v; want 1, 2, false (a was promoted by its overwrite)", ev, n, m.Contains("b"))
	}
	if v, ok := m.Lookup("a"); !ok || v != 10 {
		t.Errorf("Lookup(a) = %d, %v; want 10, true", v, ok)
	}
	if _, ok := m.Lookup("b"); ok {
		t.Error("Lookup found an evicted key")
	}
	m.Put("d", 4) // a was promoted by its Lookup: c goes
	if !m.Contains("a") || m.Contains("c") {
		t.Error("Lookup did not promote")
	}
	if hits, misses := m.Lookups(); hits != 1 || misses != 1 {
		t.Errorf("lookups: %d hits, %d misses; want 1 and 1", hits, misses)
	}
}

// TestMemoConcurrent: goroutines racing to build the same keys all get
// one value per key, the first stored; and through a memo small enough
// that they miss, insert and evict concurrently, every Get still returns
// its key's value within the bound. Run it under -race.
func TestMemoConcurrent(t *testing.T) {
	const goroutines, keys = 8, 10
	m := New[int, *int](keys)
	got := make([][keys]*int, goroutines)
	small := New[int, *int](3)
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 * keys {
				k := (g*3 + i) % keys
				build := func() (*int, error) { v := k; return &v, nil }
				v, err := m.Get(k, build)
				if err != nil || *v != k {
					t.Errorf("key %d: got %v, %v", k, v, err)
					return
				}
				if got[g][k] == nil {
					got[g][k] = v
				} else if got[g][k] != v {
					t.Errorf("key %d changed value without an eviction", k)
					return
				}
				if v, err := small.Get(k, build); err != nil || *v != k {
					t.Errorf("small memo, key %d: got %v, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Errorf("goroutine %d got other values than goroutine 0", g)
		}
	}
	if small.Len() > small.Max() {
		t.Errorf("%d entries past the bound %d", small.Len(), small.Max())
	}
}
