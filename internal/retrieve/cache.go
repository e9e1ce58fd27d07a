package retrieve

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/format"
	"repro/internal/frame"
)

// CacheStats reports a retrieval cache's activity and occupancy.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64 // bytes of cached frames
	Entries   int
	Budget    int64
}

type cacheEntry struct {
	key    string
	stream string
	frames []*frame.Frame
	bytes  int64
}

// Cache is an LRU cache of retrieved segments in their consumption format,
// keyed by (stream, segment, storage format, consumption format), bounded by
// a byte budget. It sits in front of the store so repeated queries skip
// decode and fidelity conversion entirely — the consumption-format caching
// that VSS (Haynes et al., 2021) showed cuts retrieval latency.
//
// Cached frames are shared between callers and must be treated as
// immutable. Operators only read the frames they consume, preserving the
// invariant. All methods are safe for concurrent use.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	ll        *list.List // front = most recently used; values are *cacheEntry
	entries   map[string]*list.Element
	bytes     int64
	hits      int64
	misses    int64
	evictions int64
	// gens holds one invalidation state per stream: the generation
	// Invalidate(stream) bumps — put drops fills whose retrieval began
	// before the bump, so an in-flight retrieval racing an erosion cannot
	// repopulate the cache with pre-erosion frames, while fills for OTHER
	// streams land unharmed (a single global generation would let one
	// stream's erosion daemon starve every other stream's fills) — plus
	// the reference counts that let the state be PRUNED: an entry exists
	// only while the stream has resident entries or in-flight fills, so a
	// deployment churning through stream names cannot leak one generation
	// per dead stream forever. Pruning is safe exactly under that rule:
	// with no token outstanding, no later put can mistake a re-created
	// zero generation for the one it observed.
	gens map[string]*streamState
}

// streamState is one stream's invalidation generation and what pins it.
type streamState struct {
	gen       int64
	inflight  int // get misses (and generation calls) awaiting their put
	residents int // cached entries of this stream
}

// NewCache returns a cache bounded by budgetBytes of frame data. A budget
// of zero or less returns nil: the no-cache sentinel every lookup path
// accepts.
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		return nil
	}
	return &Cache{
		budget:  budgetBytes,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		gens:    make(map[string]*streamState),
	}
}

func cacheKey(stream string, sf format.StorageFormat, cf format.ConsumptionFormat, idx int) string {
	return fmt.Sprintf("%s/%s/%s/%d", stream, sf.Key(), cf.Fidelity.Key(), idx)
}

// get returns the cached frames for key, marking the entry most recently
// used. Misses are counted here, so only cacheable lookups count. stream is
// the key's stream: on a miss the returned generation is the stream's
// in-flight-fill token, and the caller MUST balance the miss with exactly
// one put (landing the fill) or abandon (discarding it) — the token pins
// the stream's generation state against pruning until then.
func (c *Cache) get(stream, key string) ([]*frame.Frame, int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		st := c.stateLocked(stream)
		st.inflight++
		return nil, st.gen, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	var gen int64
	if st := c.gens[stream]; st != nil {
		gen = st.gen
	}
	return el.Value.(*cacheEntry).frames, gen, true
}

// put inserts (or refreshes) the frames under key and evicts least recently
// used entries until the byte budget holds. An entry larger than the whole
// budget is never cached — inserts AND refreshes: a refresh that grew past
// the budget additionally drops the resident entry, since the two
// deliveries disagree and the new one cannot be held. gen is the stream's
// generation get returned when the miss was observed: if Invalidate ran on
// this stream in between, the retrieval may predate a deletion and is
// silently dropped; other streams' invalidations never drop this fill.
func (c *Cache) put(stream, key string, frames []*frame.Frame, gen int64) {
	var bytes int64
	for _, f := range frames {
		bytes += int64(f.Bytes())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked(stream)
	if st.inflight > 0 {
		st.inflight--
	}
	if gen != st.gen {
		c.pruneLocked(stream)
		return
	}
	el, ok := c.entries[key]
	if bytes > c.budget {
		if ok {
			c.removeLocked(el)
			c.evictions++
		}
		c.pruneLocked(stream)
		return
	}
	if ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += bytes - ent.bytes
		ent.frames, ent.bytes = frames, bytes
		c.ll.MoveToFront(el)
	} else {
		c.entries[key] = c.ll.PushFront(&cacheEntry{key: key, stream: stream, frames: frames, bytes: bytes})
		c.bytes += bytes
		st.residents++
	}
	// Same semantics as Resize: evict down to the budget, the last entry
	// included. (An earlier Len() > 1 guard here let one oversized refresh
	// pin Bytes > Budget forever.) The loop can never evict the entry just
	// written: it sits at the front, and once it is the only entry left,
	// bytes <= budget guarantees the loop has terminated.
	for c.bytes > c.budget && c.ll.Len() > 0 {
		c.evictOldest()
	}
}

// abandon balances a get miss whose fill will never arrive (the read or
// decode errored). Without it the phantom in-flight fill would pin the
// stream's generation state forever.
func (c *Cache) abandon(stream string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.gens[stream]; st != nil {
		if st.inflight > 0 {
			st.inflight--
		}
		c.pruneLocked(stream)
	}
}

// stateLocked returns the stream's generation state, creating it at
// generation zero — safe because pruning only runs with no fill token
// outstanding, so no stale token can match the fresh zero. Caller holds mu.
func (c *Cache) stateLocked(stream string) *streamState {
	st := c.gens[stream]
	if st == nil {
		st = &streamState{}
		c.gens[stream] = st
	}
	return st
}

// pruneLocked drops the stream's generation state once neither residents
// nor in-flight fills reference it. Caller holds mu.
func (c *Cache) pruneLocked(stream string) {
	if st := c.gens[stream]; st != nil && st.inflight == 0 && st.residents == 0 {
		delete(c.gens, stream)
	}
}

// evictOldest drops the least recently used entry. Caller holds mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	c.removeLocked(el)
	c.evictions++
}

// removeLocked unlinks one entry from the list, the map and the byte
// account, releasing its pin on the stream's generation state. Caller
// holds mu.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.bytes
	if st := c.gens[ent.stream]; st != nil {
		st.residents--
		c.pruneLocked(ent.stream)
	}
}

// Resize changes the byte budget, evicting as needed to honour a smaller
// one.
func (c *Cache) Resize(budgetBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budgetBytes
	for c.bytes > c.budget && c.ll.Len() > 0 {
		c.evictOldest()
	}
}

// Invalidate drops every cached segment of the stream, in any format, and
// bumps the stream's generation so in-flight fills for it are dropped at
// put. Used after erosion or deletion changes what the store would return.
// Other streams are untouched: their entries stay resident and their
// in-flight fills still land. With no fills in flight the stream's
// generation state is pruned outright — nothing can reference the old
// generation, and keeping it would leak one entry per dead stream.
func (c *Cache) Invalidate(stream string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.gens[stream]; st != nil {
		st.gen++
	}
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*cacheEntry).stream == stream {
			c.removeLocked(el)
		}
		el = next
	}
	c.pruneLocked(stream)
}

// generation returns the stream's current invalidation generation: the
// token a direct put must carry, observed before the retrieval it caches
// began. Like a get miss, it registers an in-flight fill that MUST be
// balanced by exactly one put or abandon.
func (c *Cache) generation(stream string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked(stream)
	st.inflight++
	return st.gen
}

// Stats returns a snapshot of the cache counters. A nil cache reports
// zeroes, so callers need not special-case the disabled state.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   c.ll.Len(),
		Budget:    c.budget,
	}
}
