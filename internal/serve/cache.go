package serve

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"
)

// respCache is the engine's bounded response cache: terminal done
// results keyed by the result-affecting request parameters, so an
// identical resubmission (same content-addressed dataset, same kind,
// same parameters, same seed) is answered without touching the worker
// pool. Entries are the compact json.Marshal of the result; replaying
// one as json.RawMessage through writeJSON produces bytes identical to
// the cold run, because the indenting encoder re-indents the compact
// form the same way it indents a fresh Marshal.
type respCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	raw json.RawMessage
}

// newRespCache builds a cache holding up to capacity entries; a
// non-positive capacity disables caching (nil receiver, every method
// no-ops).
func newRespCache(capacity int) *respCache {
	if capacity <= 0 {
		return nil
	}
	return &respCache{cap: capacity, order: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached result bytes for key, refreshing its recency.
func (c *respCache) get(key string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).raw, true
}

// put stores raw under key, evicting the least-recently-used entry
// past capacity.
func (c *respCache) put(key string, raw json.RawMessage) {
	if c == nil || len(raw) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).raw = raw
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&cacheEntry{key: key, raw: raw})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// len returns the live entry count.
func (c *respCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// cacheKey derives the cache key for req, or ok=false when the request
// kind is not cacheable. Remedy jobs are excluded: running one
// registers its output dataset into the registry (a side effect a
// cached replay would silently skip). The key covers exactly the
// result-affecting fields — DatasetID is content-addressed, so equal
// IDs mean equal data — and deliberately excludes IdempotencyKey,
// TimeoutMS, Tenant and Workers, which change delivery, not the answer.
func cacheKey(req JobRequest) (string, bool) {
	if req.Kind == "remedy" {
		return "", false
	}
	return fmt.Sprintf("%s|%s|tau=%g|t=%d|min=%d|scope=%s|tech=%s|model=%s|stat=%s|sup=%g|seed=%d",
		req.Kind, req.DatasetID, req.TauC, req.T, req.MinSize, req.Scope,
		req.Technique, req.Model, req.Stat, req.MinSupport, req.Seed), true
}
