package pipeline

import (
	"container/list"
	"strings"
	"sync"
)

// lruCache is a thread-safe fixed-capacity LRU. One implementation
// backs both of the pipeline's caches: the result cache, keyed by the
// normalized request (see Request.CacheKey), and the verdict-table
// cache, keyed by the analyzed trace (see tableKey). Entries of both are
// small — a summary, a table of booleans — and independent of the size
// of the trace they derive from, so the entry count is the only bound.
type lruCache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) *lruCache[V] {
	if capacity <= 0 {
		return nil
	}
	return &lruCache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

func (c *lruCache[V]) get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

func (c *lruCache[V]) put(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		victim := c.ll.Back()
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*lruEntry[V]).key)
	}
}

func (c *lruCache[V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// peek reports whether a key is cached without refreshing its recency —
// for presence probes (cluster cache lookups deciding whether to ask a
// peer) that must not distort the LRU order.
func (c *lruCache[V]) peek(key string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// keys returns up to n cache keys, most recently used first — the
// "cache-population hints" a node gossips to peers so their cluster
// cache probes can target the holder directly.
func (c *lruCache[V]) keys(n int) []string {
	if c == nil || n <= 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, min(n, c.ll.Len()))
	for el := c.ll.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).key)
	}
	return out
}

// hasKeyPrefix reports whether any cached key starts with prefix,
// without touching recency — a presence probe over the whole key set
// (both pipeline caches key by leading content digest, so "does any
// artifact derive from this trace" is a prefix question).
func (c *lruCache[V]) hasKeyPrefix(prefix string) bool {
	if c == nil || prefix == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.items {
		if strings.HasPrefix(key, prefix) {
			return true
		}
	}
	return false
}
