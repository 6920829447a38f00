// LRU record cache ("a cache buffering scheme designed to keep the most
// recently referenced blocks of data in main memory", feature 6 of the
// ENCOMPASS data base manager). The DISCPROCESS consults the cache before
// paying the simulated disc-read cost.
package dbfile

import "sync"

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

// cacheEntry is one cached record and its links in the recency list, so
// caching a record is one object.
type cacheEntry struct {
	prev, next *cacheEntry
	key        CacheKey
	val        []byte
}

// Cache is a fixed-capacity LRU cache of records keyed by CacheKey. It is
// safe for concurrent use. A cached value is the file's stored slice,
// shared and never modified (see the package comment).
type Cache struct {
	mu       sync.Mutex
	capacity int
	// lru is the recency list's sentinel: lru.next is the most recently
	// used entry, lru.prev the least.
	lru   cacheEntry
	items map[CacheKey]*cacheEntry
	stats CacheStats
}

// NewCache creates a cache holding up to capacity records; capacity <= 0
// disables caching (every lookup misses).
func NewCache(capacity int) *Cache {
	c := &Cache{capacity: capacity, items: make(map[CacheKey]*cacheEntry)}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

func (c *Cache) unlink(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache) pushFront(e *cacheEntry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.next.prev, c.lru.next = e, e
}

// Get returns the cached value and whether it was present. The value is
// shared with the cache and the file: the caller must not modify it.
func (c *Cache) Get(key CacheKey) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.capacity <= 0 {
		c.stats.Misses++
		return nil, false
	}
	e, ok := c.items[key]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	c.stats.Hits++
	return e.val, true
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
	val, err := f.ReadShared(ck.Key)
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
	if e, ok := c.items[key]; ok {
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return
	}
	var e *cacheEntry
	if len(c.items) >= c.capacity {
		// The evicted entry carries the new record.
		e = c.lru.prev
		c.unlink(e)
		delete(c.items, e.key)
		c.stats.Evictions++
		*e = cacheEntry{key: key, val: val}
	} else {
		e = &cacheEntry{key: key, val: val}
	}
	c.pushFront(e)
	c.items[key] = e
}

// Invalidate drops one record.
func (c *Cache) Invalidate(key CacheKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.unlink(e)
		delete(c.items, key)
	}
}

// Len returns the number of cached records.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
