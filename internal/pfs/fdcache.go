package pfs

import (
	"container/list"
	"os"
	"sync"
)

// DefaultFDCacheSize caps how many file descriptors the extent store
// keeps open. 256 stays far under typical rlimits while covering the
// working set of a busy node (a few dozen hot streams × a few extents).
const DefaultFDCacheSize = 256

// fdKey identifies one cached descriptor: one extent file of a handle.
type fdKey struct {
	handle uint64
	ext    uint32
}

// fdEntry is one cached descriptor with a reference count. The cache
// holds an implicit reference while the entry is live; payloads in
// flight hold explicit ones, so eviction can never close a descriptor
// out from under a sendfile in progress — a dead entry closes when its
// last reference drops.
type fdEntry struct {
	key  fdKey
	f    *os.File
	refs int
	dead bool // evicted or invalidated; close once refs == 0
	elem *list.Element
}

// fdCache is a capped, refcounted LRU of open descriptors, shared by the
// extent store. All operations are safe for concurrent use; opens run
// under the cache lock (serializing them), which also makes
// open-or-create races impossible.
type fdCache struct {
	mu      sync.Mutex
	cap     int
	entries map[fdKey]*fdEntry
	lru     *list.List // front = most recently used; holds *fdEntry
	closed  bool
}

func newFDCache(capacity int) *fdCache {
	if capacity <= 0 {
		capacity = DefaultFDCacheSize
	}
	return &fdCache{cap: capacity, entries: make(map[fdKey]*fdEntry), lru: list.New()}
}

// acquire returns the cached descriptor for key, opening it with open on
// a miss, and takes a reference the caller must release. Opening past
// capacity evicts unreferenced LRU entries first; entries pinned by
// in-flight payloads are skipped (the cache may transiently exceed cap).
func (c *fdCache) acquire(key fdKey, open func() (*os.File, error)) (*fdEntry, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, os.ErrClosed
	}
	if e, ok := c.entries[key]; ok {
		e.refs++
		c.lru.MoveToFront(e.elem)
		return e, nil
	}
	f, err := open()
	if err != nil {
		return nil, err
	}
	e := &fdEntry{key: key, f: f, refs: 1}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	for c.lru.Len() > c.cap {
		if !c.evictLRULocked() {
			break
		}
	}
	return e, nil
}

// evictLRULocked drops the least-recently-used unreferenced entry.
// Reports whether anything was evicted.
func (c *fdCache) evictLRULocked() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*fdEntry)
		if e.refs > 0 {
			continue
		}
		c.removeLocked(e)
		e.f.Close()
		return true
	}
	return false
}

// removeLocked unlinks e from the map and LRU and marks it dead. The
// caller closes e.f if no references remain.
func (c *fdCache) removeLocked(e *fdEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
	e.dead = true
}

// release drops one reference taken by acquire.
func (c *fdCache) release(e *fdEntry) {
	c.mu.Lock()
	e.refs--
	closeNow := e.dead && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		e.f.Close()
	}
}

// invalidate removes key from the cache (Remove/Truncate of the backing
// file). The descriptor closes immediately if unreferenced, else when
// the last in-flight payload releases it.
func (c *fdCache) invalidate(key fdKey) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		c.removeLocked(e)
	}
	closeNow := ok && e.refs == 0
	c.mu.Unlock()
	if closeNow {
		e.f.Close()
	}
}

// invalidateHandle removes every cached descriptor of handle.
func (c *fdCache) invalidateHandle(handle uint64) {
	c.mu.Lock()
	var toClose []*fdEntry
	for key, e := range c.entries {
		if key.handle != handle {
			continue
		}
		c.removeLocked(e)
		if e.refs == 0 {
			toClose = append(toClose, e)
		}
	}
	c.mu.Unlock()
	for _, e := range toClose {
		e.f.Close()
	}
}

// len reports the number of live cached descriptors (tests).
func (c *fdCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// closeAll invalidates everything and shuts the cache. Pinned
// descriptors close as their references drop.
func (c *fdCache) closeAll() error {
	c.mu.Lock()
	c.closed = true
	var toClose []*fdEntry
	for _, e := range c.entries {
		e.dead = true
		if e.refs == 0 {
			toClose = append(toClose, e)
		}
	}
	c.entries = make(map[fdKey]*fdEntry)
	c.lru.Init()
	c.mu.Unlock()
	var first error
	for _, e := range toClose {
		if err := e.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
