// Package lru is the byte-budgeted LRU under both of VStore's caches: the
// retrieval cache (decoded frames in consumption format, retrieve.Cache) and
// the materialized-results index (results.Store). It owns what the two
// share — the recency list, byte accounting, eviction, and the per-group
// generation state that keeps an invalidation safe against fills in flight
// across it — and nothing about what is cached.
//
// The fill protocol: Get either hits or returns a miss Token, and the caller
// MUST balance every miss with exactly one Put (the fill lands) or Abandon
// (it never will). The token carries the group's generation as the miss saw
// it; Invalidate and Bump advance the generation, so a Put whose retrieval
// began before an invalidation — and may hold pre-erosion data — is dropped
// instead of repopulating the cache. Generations are per group (per stream):
// one stream's erosion never drops another stream's fills.
//
// A group's state exists only while something references it — resident
// entries or misses awaiting their Put/Abandon — so churning through group
// names leaks nothing. Pruning is safe exactly under that rule: with no
// token outstanding, no later Put can mistake a re-created generation zero
// for the one it observed.
package lru

import (
	"container/list"
	"sync"
)

// Token is the opaque miss token Get and Miss return and Put consumes. The
// zero Token is what a hit returns.
type Token int64

// Outcome is what became of a Put.
type Outcome int

const (
	Landed    Outcome = iota // resident, within budget
	Stale                    // the group was invalidated since the miss: dropped
	Oversized                // larger than the whole budget: never held
)

// Stats reports a cache's activity and occupancy.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64 // accounted size of the resident entries
	Entries   int
	Budget    int64
	Groups    int // groups holding generation state: those with entries or fills in flight
}

type entry[V any] struct {
	key, group string
	v          V
	size       int64
}

// groupState is one group's invalidation generation and what pins it.
type groupState struct {
	gen       Token
	inflight  int // misses awaiting their Put or Abandon
	residents int // cached entries of this group
}

// Cache is an LRU of values keyed by string, each belonging to one group and
// accounted at a caller-stated size, bounded by a byte budget. All methods
// are safe for concurrent use.
type Cache[V any] struct {
	mu        sync.Mutex
	budget    int64
	bytes     int64
	ll        *list.List // front = most recently used; values are *entry[V]
	entries   map[string]*list.Element
	groups    map[string]*groupState
	onRemove  func(key string, v V)
	hits      int64
	misses    int64
	evictions int64
}

// New returns a cache bounded by budget bytes. onRemove, when non-nil, is
// told of every value that leaves the cache — evicted, invalidated, removed,
// or replaced by a refresh of its key — so an owner can drop what it keeps
// beside the entry. It runs with the cache locked and must not call back in.
func New[V any](budget int64, onRemove func(key string, v V)) *Cache[V] {
	return &Cache[V]{
		budget:   budget,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		groups:   make(map[string]*groupState),
		onRemove: onRemove,
	}
}

// Get returns the value under key, marking it most recently used. On a miss
// it returns the group's fill token, which the caller must balance with one
// Put or Abandon.
func (c *Cache[V]) Get(group, key string) (V, Token, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*entry[V]).v, 0, true
	}
	var zero V
	return zero, c.missLocked(group), false
}

// Peek returns the value under key without counting a lookup or touching
// recency: for an owner that must validate a resident entry before it
// decides between Get (serve it) and Miss (refill it).
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*entry[V]).v, true
	}
	var zero V
	return zero, false
}

// Miss counts a miss and returns the group's fill token without a lookup:
// the miss half of Get, for an entry that is resident but unusable.
func (c *Cache[V]) Miss(group string) Token {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.missLocked(group)
}

func (c *Cache[V]) missLocked(group string) Token {
	c.misses++
	st := c.stateLocked(group)
	st.inflight++
	return st.gen
}

// Put lands the fill of a miss that returned t: v becomes (or replaces) the
// entry under key at the given size, most recently used, and least recently
// used entries are evicted until the budget holds. A key always belongs to
// the same group. The fill is dropped if the group was invalidated since
// the miss, and a value larger than the whole budget is never held — an
// oversized refresh also evicts the resident entry, since the two
// deliveries disagree and the new one cannot be kept.
func (c *Cache[V]) Put(group, key string, v V, size int64, t Token) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stateLocked(group)
	if st.inflight > 0 {
		st.inflight--
	}
	if t != st.gen {
		c.pruneLocked(group)
		return Stale
	}
	return c.addLocked(st, group, key, v, size)
}

// Add is Put without a miss to balance: for seeding a cache from persisted
// state before any invalidation can have run.
func (c *Cache[V]) Add(group, key string, v V, size int64) Outcome {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.addLocked(c.stateLocked(group), group, key, v, size)
}

func (c *Cache[V]) addLocked(st *groupState, group, key string, v V, size int64) Outcome {
	el, resident := c.entries[key]
	if size > c.budget {
		if resident {
			c.removeLocked(el)
			c.evictions++
		}
		c.pruneLocked(group)
		return Oversized
	}
	if resident {
		ent := el.Value.(*entry[V])
		old := ent.v
		c.bytes += size - ent.size
		ent.v, ent.size = v, size
		c.ll.MoveToFront(el)
		if c.onRemove != nil {
			c.onRemove(key, old)
		}
	} else {
		c.entries[key] = c.ll.PushFront(&entry[V]{key: key, group: group, v: v, size: size})
		c.bytes += size
		st.residents++
	}
	// The entry just written sits at the front and fits the budget, so the
	// loop stops before reaching it (and st stays pinned by it).
	c.evictLocked()
	return Landed
}

// Abandon balances a miss whose fill will never arrive. Without it the
// phantom fill would pin the group's generation state forever.
func (c *Cache[V]) Abandon(group string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st := c.groups[group]; st != nil && st.inflight > 0 {
		st.inflight--
		c.pruneLocked(group)
	}
}

// Bump advances the group's generation, so fills in flight across the call
// are dropped at Put. With no state there is nothing resident and nothing in
// flight, hence nothing a bump must outdate.
func (c *Cache[V]) Bump(group string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked(group)
}

func (c *Cache[V]) bumpLocked(group string) {
	if st := c.groups[group]; st != nil {
		st.gen++
	}
}

// Remove drops the entry under key, if any. It is not an eviction and does
// not touch the generation.
func (c *Cache[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
}

// Invalidate drops every entry of the group and bumps its generation. Other
// groups are untouched: their entries stay and their fills still land.
func (c *Cache[V]) Invalidate(group string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked(group)
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry[V]).group == group {
			c.removeLocked(el)
		}
		el = next
	}
}

// Resize changes the byte budget, evicting as needed to honour a smaller
// one.
func (c *Cache[V]) Resize(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictLocked()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Bytes:     c.bytes,
		Entries:   c.ll.Len(),
		Budget:    c.budget,
		Groups:    len(c.groups),
	}
}

// stateLocked returns the group's generation state, creating it at
// generation zero.
func (c *Cache[V]) stateLocked(group string) *groupState {
	st := c.groups[group]
	if st == nil {
		st = &groupState{}
		c.groups[group] = st
	}
	return st
}

// pruneLocked is the one place generation state is deleted: only once
// neither residents nor in-flight fills reference it.
func (c *Cache[V]) pruneLocked(group string) {
	if st := c.groups[group]; st != nil && st.inflight == 0 && st.residents == 0 {
		delete(c.groups, group)
	}
}

// evictLocked evicts least recently used entries until the budget holds,
// the last entry included.
func (c *Cache[V]) evictLocked() {
	for c.bytes > c.budget && c.ll.Len() > 0 {
		c.removeLocked(c.ll.Back())
		c.evictions++
	}
}

// removeLocked unlinks one entry from the list, the map and the byte
// account, releases its pin on the group's state and tells the owner.
func (c *Cache[V]) removeLocked(el *list.Element) {
	ent := c.ll.Remove(el).(*entry[V])
	delete(c.entries, ent.key)
	c.bytes -= ent.size
	c.groups[ent.group].residents--
	c.pruneLocked(ent.group)
	if c.onRemove != nil {
		c.onRemove(ent.key, ent.v)
	}
}
