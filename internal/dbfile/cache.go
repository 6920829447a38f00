// LRU record cache ("a cache buffering scheme designed to keep the most
// recently referenced blocks of data in main memory", feature 6 of the
// ENCOMPASS data base manager). The DISCPROCESS consults the cache before
// paying the simulated disc-read cost.
package dbfile

import (
	"container/list"
	"sync"
)

// CacheStats counts cache activity.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRatio returns hits/(hits+misses), or 0 with no traffic.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// CacheKey names one cached record: a record key within a file. It is a
// comparable struct, so building one costs nothing.
type CacheKey struct{ File, Key string }

type cacheEntry struct {
	key CacheKey
	val []byte
}

// Cache is a fixed-capacity LRU cache of records keyed by CacheKey. It is
// safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	items    map[CacheKey]*list.Element
	stats    CacheStats
}

// NewCache creates a cache holding up to capacity records; capacity <= 0
// disables caching (every lookup misses).
func NewCache(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[CacheKey]*list.Element),
	}
}

// Get returns the cached value and whether it was present.
func (c *Cache) Get(key CacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		c.stats.Misses++
		return nil, false
	}
	el, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	return el.Value.(*cacheEntry).val, true
}

// Put stores a value, evicting the least recently used record if full.
func (c *Cache) Put(key CacheKey, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

// Fill serves a miss on ck: it reads ck.Key from f and installs the
// value, both under the cache mutex. Writers change the file first and the
// cache second (Put after a write, Invalidate after a delete), so the whole
// fill is ordered either before a writer's cache step, which then replaces
// what it installed, or after it, and then the read already saw the
// writer's file step. Read-then-Put as two steps has neither guarantee: the
// Put can land after the writer's and leave the replaced value cached.
// Lock order is cache, then file; no File method calls into a Cache.
func (c *Cache) Fill(ck CacheKey, f *File) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	val, err := f.Read(ck.Key)
	if err != nil {
		return nil, err
	}
	c.putLocked(ck, val)
	return val, nil
}

func (c *Cache) putLocked(key CacheKey, val []byte) {
	if c.capacity <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		if back != nil {
			c.order.Remove(back)
			delete(c.items, back.Value.(*cacheEntry).key)
			c.stats.Evictions++
		}
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, val: val})
}

// Invalidate drops one record.
func (c *Cache) Invalidate(key CacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.Remove(el)
		delete(c.items, key)
	}
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
