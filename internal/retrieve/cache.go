package retrieve

import (
	"fmt"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/lru"
)

// CacheStats reports a retrieval cache's activity and occupancy; Bytes is
// bytes of cached frames.
type CacheStats = lru.Stats

// Cache is an LRU cache of retrieved segments in their consumption format,
// keyed by (stream, segment, storage format, consumption format), bounded by
// a byte budget. It sits in front of the store so repeated queries skip
// decode and fidelity conversion entirely — the consumption-format caching
// that VSS (Haynes et al., 2021) showed cuts retrieval latency. It is a thin
// adapter over lru.Cache, grouped by stream: the miss token get returns must
// be balanced by one put or abandon, and a put whose retrieval began before
// Invalidate(stream) is dropped (see package lru).
//
// Cached frames are shared between callers and must be treated as
// immutable. Operators only read the frames they consume, preserving the
// invariant. All methods are safe for concurrent use.
type Cache struct {
	lru *lru.Cache[[]*frame.Frame]
}

// NewCache returns a cache bounded by budgetBytes of frame data. A budget
// of zero or less returns nil: the no-cache sentinel every lookup path
// accepts.
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return &Cache{lru: lru.New[[]*frame.Frame](budgetBytes, nil)}
}

func cacheKey(stream string, sf format.StorageFormat, cf format.ConsumptionFormat, idx int) string {
	return fmt.Sprintf("%s/%s/%s/%d", stream, sf.Key(), cf.Fidelity.Key(), idx)
}

// get returns the cached frames for key, or the stream's miss token.
// Misses are counted here, so only cacheable lookups count.
func (c *Cache) get(stream, key string) ([]*frame.Frame, lru.Token, bool) {
	return c.lru.Get(stream, key)
}

// put lands the fill of the miss that returned t, accounted at the frames'
// byte size.
func (c *Cache) put(stream, key string, frames []*frame.Frame, t lru.Token) {
	var bytes int64
	for _, f := range frames {
		bytes += int64(f.Bytes())
	}
	c.lru.Put(stream, key, frames, bytes, t)
}

// abandon balances a get miss whose fill will never arrive.
func (c *Cache) abandon(stream string) { c.lru.Abandon(stream) }

// Resize changes the byte budget, evicting as needed to honour a smaller
// one.
func (c *Cache) Resize(budgetBytes int64) { c.lru.Resize(budgetBytes) }

// Invalidate drops every cached segment of the stream, in any format, and
// drops the fills in flight for it at their put. Used after erosion or
// deletion changes what the store would return.
func (c *Cache) Invalidate(stream string) { c.lru.Invalidate(stream) }

// Stats returns a snapshot of the cache counters. A nil cache reports
// zeroes, so callers need not special-case the disabled state.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.lru.Stats()
}
