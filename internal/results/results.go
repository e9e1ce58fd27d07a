// Package results is VStore's results-materialization layer: finalized
// per-segment operator outputs (detections, consumed frame timelines, and
// the deterministic retrieval/consumption accounting that reproduces query
// stats), keyed by everything that determines them — stream, segment,
// operator, storage and consumption format, and the activation-span digest
// of the cascade stage. Entries are served decoded from memory; the tiered
// kvstore persists them, written through on every fill and read only when a
// reopened store adopts them. Repeated queries and subscription fan-out
// then serve stored detections with one map lookup
// instead of re-decoding and re-classifying the same footage — VSS's
// "cache in the most useful format" taken one level up the stack, from
// decoded pixels to operator outputs.
//
// Safety rests on two rules the frame cache already enforces:
//
//   - visibility gates every lookup: callers consult segment visibility
//     before Get, so an eroded (or not-yet-committed) segment can never be
//     served from a stale stored result;
//   - invalidation is generation-safe per stream: InvalidateSegment drops
//     a removed segment's entries AND bumps the stream's generation, so an
//     in-flight fill racing the erosion is dropped at Put instead of
//     repopulating the store with pre-erosion results. The index, its byte
//     budget and that generation state are package lru's, shared with the
//     frame cache; this package adds persistence and the per-segment index.
//
// Because entries hold a stage's complete output and exact accounting, a
// query served from materialized results is byte-identical to one that
// recomputes — at any worker count, which the query engine's per-segment
// merge order guarantees.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/lru"
)

// Prefix namespaces every materialized result in the kvstore. It is
// distinct from the segment layer's seg/, raw/ and rawmeta/ prefixes and
// from the server's meta/ keys; the tiered router sends unknown prefixes
// (this one included) to the fast tier, which is where hot results belong.
const Prefix = "res/"

// KV is the byte surface the store persists to — the server passes its
// tiered engine. Only flat key-value operations are needed; the store
// keeps its own in-memory index.
type KV interface {
	Put(key string, value []byte) error
	Get(key string) ([]byte, error)
	Delete(key string) error
	Keys(prefix string) []string
}

// Key identifies one materialized stage output. Every field participates:
// two queries share an entry exactly when the stored bytes, the consumption
// fidelity, the operator, and the activation spans feeding the stage all
// agree — the conditions under which their outputs are provably equal.
type Key struct {
	Stream string
	Seg    int
	// End is the exclusive range end for a range entry: a stateful
	// operator's output memoised over segments [Seg, End) as one unit,
	// since splitting its input per segment would change detections. Zero
	// (or Seg+1) marks the common single-segment entry. The range length
	// participates in the digest so queries over different ranges that
	// share a start segment never collide.
	End  int
	Op   string // operator name
	SF   string // storage-format key the frames were retrieved from
	CF   string // consumption-fidelity key the operator consumed
	Span string // activation-span digest; "" for an unfiltered first stage
}

// span returns the number of segments the key covers (>= 1).
func (k Key) span() int {
	if k.End > k.Seg+1 {
		return k.End - k.Seg
	}
	return 1
}

// encode lays the key out as res/<stream>/<seg>/<digest>: the stream and
// segment stay addressable (segment-granular invalidation scans by
// prefix), while the operator/format/span/range tuple collapses into a
// digest so arbitrary format keys cannot collide with the path structure.
// The bytes are fmt's "%s\x00%s\x00%s\x00%s\x00%d" digest input and
// "%s%s/%08d/%s" key, so earlier stores still adopt (TestKeyEncodeGolden).
func (k Key) encode() string {
	b := append(make([]byte, 0, 128), k.Op...)
	for _, f := range [...]string{k.SF, k.CF, k.Span} {
		b = append(append(b, 0), f...)
	}
	b = strconv.AppendInt(append(b, 0), int64(k.span()), 10)
	d := sha256.Sum256(b)
	return string(hex.AppendEncode(appendSegPrefix(b[:0], k.Stream, k.Seg), d[:16]))
}

// segPrefix is the kv prefix holding every entry of one segment.
func segPrefix(stream string, seg int) string {
	return string(appendSegPrefix(nil, stream, seg))
}

// appendSegPrefix appends res/<stream>/<seg>/, the segment zero-padded to
// eight characters sign included, as fmt's %08d pads it.
func appendSegPrefix(b []byte, stream string, seg int) []byte {
	b = append(append(append(b, Prefix...), stream...), '/')
	digits := strconv.AppendInt(make([]byte, 0, 20), int64(seg), 10)
	zeros := "00000000"[:max(8-len(digits), 0)]
	if seg < 0 {
		b, digits = append(b, '-'), digits[1:]
	}
	return append(append(append(b, zeros...), digits...), '/')
}

// decodeKey recovers (stream, seg) from an encoded key, parsing from the
// right since stream names may contain '/' while the segment index and
// digest cannot. ok is false for malformed keys (foreign writes under the
// prefix), which Open treats as garbage.
func decodeKey(key string) (stream string, seg int, ok bool) {
	if len(key) <= len(Prefix) {
		return "", 0, false
	}
	rest := key[len(Prefix):]
	// rest = <stream>/<%08d>/<digest32>
	slash2 := strings.LastIndexByte(rest, '/')
	slash1 := strings.LastIndexByte(rest[:max(slash2, 0)], '/')
	if slash1 <= 0 {
		return "", 0, false
	}
	idx, err := strconv.Atoi(rest[slash1+1 : slash2])
	if err != nil || idx < 0 {
		return "", 0, false
	}
	return rest[:slash1], idx, true
}

// Stats reports the store's activity and occupancy.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64 // fills that landed (dropped fills are not counted)
	Dropped       int64 // fills dropped by a generation mismatch
	Bytes         int64 // in-memory footprint of the resident entries (see Entry.footprint)
	Entries       int
	Evictions     int64
	Invalidations int64 // entries dropped by segment invalidation
	Budget        int64
}

// meta is what the index holds per entry: the decoded entry a hit serves,
// and the segments it is registered under for invalidation.
type meta struct {
	stream string
	segs   []int
	ent    Entry
}

// Store is the materialized-results store: a byte-budgeted LRU (lru.Cache,
// grouped by stream) of decoded entries, each persisted in the kvstore. All
// methods are safe for concurrent use, and every method but Get, GetRange
// and Put tolerates a nil receiver (the disabled sentinel), reporting zeroes
// and ignoring writes.
type Store struct {
	mu    sync.Mutex // orders index, bySeg and kvstore updates as one
	kv    KV
	idx   *lru.Cache[meta]
	bySeg map[string]map[string]struct{} // segPrefix -> keys of the entries covering it

	puts, dropped, invalidations int64
}

// New opens a store over kv with the given byte budget, adopting entries a
// previous run persisted under Prefix. valid, when non-nil, filters the
// adopted set: entries whose (stream, segment) it rejects — segments
// eroded while no store was attached, or deleted during a crash window —
// are removed from the kvstore instead of adopted, so a reopen can never
// resurrect results for footage that no longer exists. A budget of zero or
// less returns nil, the disabled sentinel.
func New(kv KV, budgetBytes int64, valid func(stream string, seg int) bool) *Store {
	if budgetBytes <= 0 {
		return nil
	}
	s := &Store{kv: kv, bySeg: make(map[string]map[string]struct{})}
	s.idx = lru.New(budgetBytes, s.forget)
	// Adoption order is the sorted key order the kvstore reports — a
	// deterministic LRU seed; real recency re-establishes itself under use.
	for _, k := range kv.Keys(Prefix) {
		if !s.adopt(k, valid) {
			_ = kv.Delete(k)
		}
	}
	return s
}

// adopt indexes one persisted entry, reporting false for what must be
// deleted instead: a malformed key or a value that does not decode (garbage
// under the prefix, or a value damaged at rest), an entry covering a segment
// valid rejects, or one the budget cannot hold. This is the one place a
// persisted value is trusted, so it is the one place it is checked.
func (s *Store) adopt(key string, valid func(stream string, seg int) bool) bool {
	stream, seg, ok := decodeKey(key)
	if !ok {
		return false
	}
	v, err := s.kv.Get(key)
	if err != nil {
		return false
	}
	ent, err := decodeEntry(v)
	if err != nil {
		return false
	}
	m := meta{stream: stream, segs: coveredSegs(ent, seg), ent: ent}
	for _, sg := range m.segs {
		if valid != nil && !valid(stream, sg) {
			return false
		}
	}
	if s.idx.Add(stream, key, m, ent.footprint()) != lru.Landed {
		return false
	}
	s.register(key, m)
	return true
}

// coveredSegs is the entry's covered-segment list; an entry with no explicit
// list covers exactly its key's own segment.
func coveredSegs(e Entry, seg int) []int {
	if len(e.Segs) == 0 {
		return []int{seg}
	}
	return e.Segs
}

// Get returns the stored entry for k, marking it most recently used. A hit
// shares the store's slices: read-only, though safe to append to. On a
// miss it registers an in-flight fill and returns the stream's generation
// token: the caller MUST balance the miss with exactly one Put (to land
// the fill) or Abandon (to discard it), or the stream's generation state
// stays pinned.
func (s *Store) Get(k Key) (Entry, lru.Token, bool) {
	return s.GetRange(k, nil)
}

// GetRange is Get with a covered-segment check for range entries: a
// resident entry only hits when the segments it covers equal want — the
// segments the caller's snapshot would actually retrieve. A mismatched
// entry (filled under a different erosion state) reads as a miss; it stays
// resident, since a snapshot matching its coverage can still legitimately
// serve it, and a landing refill simply replaces it. want == nil skips the
// check (the single-segment path, where the caller's visibility gate
// already decided).
func (s *Store) GetRange(k Key, want []int) (Entry, lru.Token, bool) {
	key := k.encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, resident := s.idx.Peek(key); resident && (want == nil || slices.Equal(m.segs, want)) {
		s.idx.Get(k.Stream, key) // count the hit, mark most recently used
		return m.ent, 0, true
	}
	return Entry{}, s.idx.Miss(k.Stream), false
}

// Put lands a fill observed at Get-miss time carrying token tok. If the
// stream was invalidated since — the fill may predate an erosion — the
// entry is silently dropped. Oversized entries (larger than the whole
// budget) are never stored; a refresh that grew past the budget
// additionally drops the resident entry. The store keeps a clipped copy of
// e's slices, so e stays the caller's and appending to a hit reallocates.
func (s *Store) Put(k Key, e Entry, tok lru.Token) {
	e.Segs = slices.Clip(slices.Clone(e.Segs))
	e.PTS = slices.Clip(slices.Clone(e.PTS))
	e.Detections = slices.Clip(slices.Clone(e.Detections))
	v := e.encode()
	key := k.encode()
	m := meta{stream: k.Stream, segs: coveredSegs(e, k.Seg), ent: e}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The index goes first so a stale or oversized fill never reaches the
	// kvstore; nothing can observe the gap, since every reader takes mu.
	switch s.idx.Put(k.Stream, key, m, e.footprint(), tok) {
	case lru.Stale:
		s.dropped++
	case lru.Landed:
		s.register(key, m)
		if err := s.kv.Put(key, v); err != nil {
			// The persisted value is unknown; drop the entry rather than
			// serve bytes that may disagree with the index.
			s.idx.Remove(key)
			return
		}
		s.puts++
	}
}

// Abandon balances a Get miss whose fill will never arrive (the retrieval
// errored, or the segment turned out to be eroded). Without it the
// stream's generation state would stay pinned by the phantom in-flight
// fill.
func (s *Store) Abandon(stream string) {
	if s != nil {
		s.idx.Abandon(stream)
	}
}

// InvalidateSegment drops every stored result of one segment — called when
// erosion removes a segment (or any of its format replicas) from the
// manifest, BEFORE its bytes are physically deleted — and bumps the
// stream's generation so fills in flight across the removal are dropped at
// Put (they may have read pre-erosion frames). Other streams, and the
// stream's other segments, stay resident.
func (s *Store) InvalidateSegment(stream string, seg int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.Bump(stream)
	for key := range s.bySeg[segPrefix(stream, seg)] {
		s.invalidations++
		s.idx.Remove(key)
	}
}

// Purge drops every entry, deleting the persisted values — used when the
// store is disabled at runtime so a later re-enable (or reopen) cannot
// adopt entries that missed invalidations while no store was attached.
func (s *Store) Purge() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, set := range s.bySeg {
		for key := range set {
			s.idx.Remove(key)
		}
	}
}

// Resize changes the byte budget, evicting as needed to honour a smaller
// one.
func (s *Store) Resize(budgetBytes int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.idx.Resize(budgetBytes)
}

// Stats snapshots the counters. A nil store reports zeroes.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.idx.Stats()
	return Stats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Puts:          s.puts,
		Dropped:       s.dropped,
		Bytes:         st.Bytes,
		Entries:       st.Entries,
		Evictions:     st.Evictions,
		Invalidations: s.invalidations,
		Budget:        st.Budget,
	}
}

// register indexes the entry under every segment it covers, so any covered
// segment's invalidation finds it. Caller holds mu.
func (s *Store) register(key string, m meta) {
	for _, seg := range m.segs {
		sp := segPrefix(m.stream, seg)
		if s.bySeg[sp] == nil {
			s.bySeg[sp] = make(map[string]struct{})
		}
		s.bySeg[sp][key] = struct{}{}
	}
}

// forget is the index's removal hook: whatever the reason an entry left
// (evicted, invalidated, purged, or replaced by a refresh that may cover
// different segments), its per-segment records and its persisted value go
// with it. Runs under mu, which every path into the index holds.
func (s *Store) forget(key string, m meta) {
	for _, seg := range m.segs {
		sp := segPrefix(m.stream, seg)
		delete(s.bySeg[sp], key)
		if len(s.bySeg[sp]) == 0 {
			delete(s.bySeg, sp)
		}
	}
	_ = s.kv.Delete(key)
}
