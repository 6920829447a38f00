package dbfile

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// rec names record key in file "f".
func rec(key string) CacheKey { return CacheKey{File: "f", Key: key} }

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(2)
	if _, ok := c.Get(rec("a")); ok {
		t.Error("empty cache hit")
	}
	c.Put(rec("a"), []byte("1"))
	v, ok := c.Get(rec("a"))
	if !ok || string(v) != "1" {
		t.Errorf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.HitRatio() != 0.5 {
		t.Errorf("HitRatio = %f", st.HitRatio())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(rec("a"), []byte("1"))
	c.Put(rec("b"), []byte("2"))
	c.Get(rec("a")) // a is now most recently used
	c.Put(rec("c"), []byte("3"))
	if _, ok := c.Get(rec("b")); ok {
		t.Error("b should be evicted (LRU)")
	}
	if _, ok := c.Get(rec("a")); !ok {
		t.Error("a should survive")
	}
	if _, ok := c.Get(rec("c")); !ok {
		t.Error("c should be present")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCacheUpdateInPlace(t *testing.T) {
	c := NewCache(2)
	c.Put(rec("a"), []byte("1"))
	c.Put(rec("a"), []byte("2"))
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	v, _ := c.Get(rec("a"))
	if string(v) != "2" {
		t.Errorf("value = %q", v)
	}
}

func TestCacheInvalidate(t *testing.T) {
	c := NewCache(4)
	c.Put(rec("a"), []byte("1"))
	c.Invalidate(rec("a"))
	if _, ok := c.Get(rec("a")); ok {
		t.Error("invalidated entry still present")
	}
	c.Invalidate(rec("absent")) // no panic
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	c.Put(rec("a"), []byte("1"))
	if _, ok := c.Get(rec("a")); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Error("disabled cache stored data")
	}
}

func TestCacheKeyFormat(t *testing.T) {
	c := NewCache(4)
	c.Put(CacheKey{File: "f", Key: "k"}, []byte("1"))
	c.Put(CacheKey{File: "fk", Key: ""}, []byte("2"))
	if v, _ := c.Get(CacheKey{File: "f", Key: "k"}); string(v) != "1" || c.Len() != 2 {
		t.Errorf("f/k = %q with %d entries: cache keys must be unambiguous", v, c.Len())
	}
}

func TestCacheHitRatioRisesWithCapacity(t *testing.T) {
	// Zipf-ish access pattern: small cache misses more than large cache.
	run := func(capacity int) float64 {
		c := NewCache(capacity)
		for i := 0; i < 10000; i++ {
			key := rec(fmt.Sprintf("k%d", i%100))
			if _, ok := c.Get(key); !ok {
				c.Put(key, []byte("v"))
			}
		}
		return c.Stats().HitRatio()
	}
	small, large := run(10), run(100)
	if large <= small {
		t.Errorf("hit ratio: capacity 100 = %.3f should exceed capacity 10 = %.3f", large, small)
	}
}

func TestCacheFill(t *testing.T) {
	f := NewFile("f", KeySequenced)
	f.ForceWrite("k", []byte("v"))
	c := NewCache(2)
	v, err := c.Fill(rec("k"), f)
	if err != nil || string(v) != "v" {
		t.Fatalf("Fill = %q, %v", v, err)
	}
	if got, ok := c.Get(rec("k")); !ok || string(got) != "v" {
		t.Errorf("after Fill, Get = %q, %v", got, ok)
	}
	if _, err := c.Fill(rec("absent"), f); !errors.Is(err, ErrNotFound) {
		t.Errorf("Fill of an absent record: err = %v, want ErrNotFound", err)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d: a failed fill installed something", c.Len())
	}
	// A disabled cache still serves the read.
	if v, err := NewCache(0).Fill(rec("k"), f); err != nil || string(v) != "v" {
		t.Errorf("disabled cache Fill = %q, %v", v, err)
	}
}

// TestCacheFillNeverLeavesReplacedValue races fills against writers that
// follow the DISCPROCESS order — file first, cache second — over a cache
// too small for the key set, so entries are evicted and refilled while
// they are being rewritten and deleted. When everything has stopped, every
// cached record must be the record the file holds. (Get, File.Read, Put as
// three steps fails this: the Put can land after a writer's.)
func TestCacheFillNeverLeavesReplacedValue(t *testing.T) {
	const nKeys, rounds = 3, 400
	f := NewFile("f", KeySequenced)
	c := NewCache(2)
	key := func(k int) string { return fmt.Sprintf("k%d", k) }
	var wg sync.WaitGroup
	for k := 0; k < nKeys; k++ { // one writer per key, as under the record lock
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (r+k)%5 == 4 {
					f.ForceDelete(key(k))
					c.Invalidate(rec(key(k)))
					continue
				}
				val := []byte(fmt.Sprintf("%d-%d", k, r))
				f.ForceWrite(key(k), val)
				c.Put(rec(key(k)), val)
			}
		}(k)
	}
	for r := 0; r < 4; r++ { // readers: consult, fill on a miss
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := 0; n < rounds*nKeys; n++ {
				ck := rec(key((n + r) % nKeys))
				if _, ok := c.Get(ck); !ok {
					_, _ = c.Fill(ck, f)
				}
			}
		}(r)
	}
	wg.Wait()
	for k := 0; k < nKeys; k++ {
		cached, ok := c.Get(rec(key(k)))
		if !ok {
			continue
		}
		if held, err := f.Read(key(k)); err != nil || string(held) != string(cached) {
			t.Errorf("%s: cache holds %q, file holds %q (%v)", key(k), cached, held, err)
		}
	}
}
