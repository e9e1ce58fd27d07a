// Package results is VStore's results-materialization layer: finalized
// per-segment operator outputs (detections, consumed frame timelines, and
// the deterministic retrieval/consumption accounting that reproduces query
// stats) stored in the tiered kvstore, keyed by everything that determines
// them — stream, segment, operator, storage and consumption format, and
// the activation-span digest of the cascade stage. Repeated queries and
// subscription fan-out then serve stored detections at kvstore speed
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
//     repopulating the store with pre-erosion results.
//
// Because entries hold a stage's complete output and exact accounting, a
// query served from materialized results is byte-identical to one that
// recomputes — at any worker count, which the query engine's per-segment
// merge order guarantees.
package results

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
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
func (k Key) encode() string {
	d := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%s\x00%s\x00%d", k.Op, k.SF, k.CF, k.Span, k.span())))
	return fmt.Sprintf("%s%s/%08d/%s", Prefix, k.Stream, k.Seg, hex.EncodeToString(d[:16]))
}

// segPrefix is the kv prefix holding every entry of one segment.
func segPrefix(stream string, seg int) string {
	return fmt.Sprintf("%s%s/%08d/", Prefix, stream, seg)
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
	slash2 := lastIndexByte(rest, '/')
	if slash2 <= 0 {
		return "", 0, false
	}
	slash1 := lastIndexByte(rest[:slash2], '/')
	if slash1 <= 0 {
		return "", 0, false
	}
	var idx int
	if _, err := fmt.Sscanf(rest[slash1+1:slash2], "%d", &idx); err != nil || idx < 0 {
		return "", 0, false
	}
	return rest[:slash1], idx, true
}

func lastIndexByte(s string, b byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Stats reports the store's activity and occupancy.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64 // fills that landed (dropped fills are not counted)
	Dropped       int64 // fills dropped by a generation mismatch
	Bytes         int64 // bytes of stored entries resident in the index
	Entries       int
	Evictions     int64
	Invalidations int64 // entries dropped by segment invalidation
	Budget        int64
}

// streamState tracks one stream's invalidation generation together with
// what keeps it alive: resident entries and in-flight fills. The state is
// pruned the moment both reach zero — the pruning rule the frame cache
// shares — so churning through stream names cannot leak generation
// entries. Pruning is safe exactly then: with no token outstanding, no
// later Put can confuse a fresh generation with a stale one.
type streamState struct {
	gen       int64
	inflight  int // Get misses awaiting their Put or Abandon
	residents int // entries of this stream in the index
}

type entryMeta struct {
	key    string
	stream string
	segs   []int // segments the entry is registered under for invalidation
	bytes  int64
}

// Store is the materialized-results store: a byte-budgeted LRU index over
// entries persisted in the kvstore. All methods are safe for concurrent
// use, and every method tolerates a nil receiver (the disabled sentinel),
// reporting zeroes and ignoring writes.
type Store struct {
	mu      sync.Mutex
	kv      KV
	budget  int64
	bytes   int64
	ll      *list.List // front = most recently used; values are *entryMeta
	entries map[string]*list.Element
	bySeg   map[string]map[string]*list.Element // segPrefix -> key -> element
	gens    map[string]*streamState

	hits, misses, puts, dropped, evictions, invalidations int64
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
	s := &Store{
		kv:      kv,
		budget:  budgetBytes,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		bySeg:   make(map[string]map[string]*list.Element),
		gens:    make(map[string]*streamState),
	}
	// Adoption order is the sorted key order the kvstore reports — a
	// deterministic LRU seed; real recency re-establishes itself under use.
	// Each value is decoded to recover the covered-segment list (range
	// entries register under every covered segment); a value that does not
	// decode is garbage and is removed rather than adopted.
	for _, k := range kv.Keys(Prefix) {
		stream, seg, ok := decodeKey(k)
		if !ok {
			_ = kv.Delete(k)
			continue
		}
		v, err := kv.Get(k)
		if err != nil {
			_ = kv.Delete(k)
			continue
		}
		ent, err := decodeEntry(v)
		if err != nil {
			_ = kv.Delete(k)
			continue
		}
		segs := ent.Segs
		if len(segs) == 0 {
			segs = []int{seg}
		}
		adoptable := true
		if valid != nil {
			for _, sg := range segs {
				if !valid(stream, sg) {
					adoptable = false
					break
				}
			}
		}
		if !adoptable {
			_ = kv.Delete(k)
			continue
		}
		s.insertLocked(&entryMeta{key: k, stream: stream, segs: segs, bytes: int64(len(v))})
	}
	s.evictToBudgetLocked()
	return s
}

// Get returns the stored entry for k, marking it most recently used. On a
// miss it registers an in-flight fill and returns the stream's generation
// token: the caller MUST balance the miss with exactly one Put (to land
// the fill) or Abandon (to discard it), or the stream's generation state
// stays pinned.
func (s *Store) Get(k Key) (Entry, int64, bool) {
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
func (s *Store) GetRange(k Key, want []int) (Entry, int64, bool) {
	key := k.encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if ok {
		v, err := s.kv.Get(key)
		if err == nil {
			if ent, derr := decodeEntry(v); derr == nil {
				if want == nil || coveredEqual(k, ent, want) {
					s.hits++
					s.ll.MoveToFront(el)
					return ent, 0, true
				}
				// Coverage mismatch: miss, entry left resident.
				s.misses++
				st := s.stateLocked(k.Stream)
				st.inflight++
				return Entry{}, st.gen, false
			}
		}
		// Index and kvstore disagree (a torn write healed by replay, or a
		// corrupt value): drop the entry and miss, re-filling it cleanly.
		s.removeLocked(el)
	}
	s.misses++
	st := s.stateLocked(k.Stream)
	st.inflight++
	return Entry{}, st.gen, false
}

// coveredEqual reports whether the entry's covered segments equal want
// (both are ascending). An entry with no explicit list covers exactly the
// key's own segment.
func coveredEqual(k Key, ent Entry, want []int) bool {
	segs := ent.Segs
	if len(segs) == 0 {
		segs = []int{k.Seg}
	}
	if len(segs) != len(want) {
		return false
	}
	for i := range segs {
		if segs[i] != want[i] {
			return false
		}
	}
	return true
}

// Put lands a fill observed at Get-miss time carrying generation token
// gen. If the stream was invalidated since — the fill may predate an
// erosion — the entry is silently dropped. Oversized entries (larger than
// the whole budget) are never stored; a refresh that grew past the budget
// additionally drops the resident entry.
func (s *Store) Put(k Key, e Entry, gen int64) {
	v := e.encode()
	key := k.encode()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stateLocked(k.Stream)
	if st.inflight > 0 {
		st.inflight--
	}
	if gen != st.gen {
		s.dropped++
		s.pruneLocked(k.Stream)
		return
	}
	el, resident := s.entries[key]
	if int64(len(v)) > s.budget {
		if resident {
			s.removeLocked(el)
			s.evictions++
		}
		s.pruneLocked(k.Stream)
		return
	}
	if err := s.kv.Put(key, v); err != nil {
		// The persisted value is unknown; drop any resident entry rather
		// than serve bytes that may disagree with the index.
		if resident {
			s.removeLocked(el)
		}
		s.pruneLocked(k.Stream)
		return
	}
	segs := e.Segs
	if len(segs) == 0 {
		segs = []int{k.Seg}
	}
	if resident {
		// A refresh may change the covered-segment set (a range refilled
		// under a different erosion state): re-register so invalidation
		// keeps finding the entry under every segment it now covers.
		meta := el.Value.(*entryMeta)
		s.deregisterSegsLocked(meta, el)
		s.bytes += int64(len(v)) - meta.bytes
		meta.bytes = int64(len(v))
		meta.segs = segs
		s.registerSegsLocked(meta, el)
		s.ll.MoveToFront(el)
	} else {
		s.insertLocked(&entryMeta{key: key, stream: k.Stream, segs: segs, bytes: int64(len(v))})
	}
	s.puts++
	s.evictToBudgetLocked()
}

// Abandon balances a Get miss whose fill will never arrive (the retrieval
// errored, or the segment turned out to be eroded). Without it the
// stream's generation state would stay pinned by the phantom in-flight
// fill.
func (s *Store) Abandon(stream string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.gens[stream]; st != nil {
		if st.inflight > 0 {
			st.inflight--
		}
		s.pruneLocked(stream)
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
	s.bumpLocked(stream)
	set := s.bySeg[segPrefix(stream, seg)]
	for _, el := range set {
		s.invalidations++
		s.removeLocked(el)
	}
	s.pruneLocked(stream)
}

// bumpLocked advances the stream's generation. It only materializes state
// when something can still reference the old generation; an untouched
// stream needs no entry to be "at a fresh generation". Caller holds mu.
func (s *Store) bumpLocked(stream string) {
	// With no state there are no residents and no in-flight fills: every
	// future Get-miss allocates fresh state, so there is nothing a bump
	// must outdate.
	if st := s.gens[stream]; st != nil {
		st.gen++
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
	for el := s.ll.Front(); el != nil; {
		next := el.Next()
		s.removeLocked(el)
		el = next
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
	s.budget = budgetBytes
	s.evictToBudgetLocked()
}

// Stats snapshots the counters. A nil store reports zeroes.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:          s.hits,
		Misses:        s.misses,
		Puts:          s.puts,
		Dropped:       s.dropped,
		Bytes:         s.bytes,
		Entries:       s.ll.Len(),
		Evictions:     s.evictions,
		Invalidations: s.invalidations,
		Budget:        s.budget,
	}
}

// stateLocked returns the stream's generation state, creating it at
// generation zero. Creation at zero is safe because pruning only ever runs
// with no tokens outstanding: no stale token can match the fresh zero.
// Caller holds mu.
func (s *Store) stateLocked(stream string) *streamState {
	st := s.gens[stream]
	if st == nil {
		st = &streamState{}
		s.gens[stream] = st
	}
	return st
}

// pruneLocked drops the stream's generation state once nothing references
// it. Caller holds mu.
func (s *Store) pruneLocked(stream string) {
	if st := s.gens[stream]; st != nil && st.inflight == 0 && st.residents == 0 {
		delete(s.gens, stream)
	}
}

// insertLocked indexes one entry as most recently used. Caller holds mu.
func (s *Store) insertLocked(meta *entryMeta) {
	el := s.ll.PushFront(meta)
	s.entries[meta.key] = el
	s.registerSegsLocked(meta, el)
	s.bytes += meta.bytes
	s.stateLocked(meta.stream).residents++
}

// registerSegsLocked indexes the entry under every segment it covers, so
// any covered segment's invalidation finds it. Caller holds mu.
func (s *Store) registerSegsLocked(meta *entryMeta, el *list.Element) {
	for _, seg := range meta.segs {
		sp := segPrefix(meta.stream, seg)
		set := s.bySeg[sp]
		if set == nil {
			set = make(map[string]*list.Element)
			s.bySeg[sp] = set
		}
		set[meta.key] = el
	}
}

// deregisterSegsLocked removes the entry's per-segment index records.
// Caller holds mu.
func (s *Store) deregisterSegsLocked(meta *entryMeta, el *list.Element) {
	for _, seg := range meta.segs {
		sp := segPrefix(meta.stream, seg)
		if set := s.bySeg[sp]; set != nil {
			delete(set, meta.key)
			if len(set) == 0 {
				delete(s.bySeg, sp)
			}
		}
	}
}

// removeLocked unlinks one entry from the index and deletes its persisted
// value. Caller holds mu.
func (s *Store) removeLocked(el *list.Element) {
	meta := el.Value.(*entryMeta)
	s.ll.Remove(el)
	delete(s.entries, meta.key)
	s.deregisterSegsLocked(meta, el)
	s.bytes -= meta.bytes
	_ = s.kv.Delete(meta.key)
	if st := s.gens[meta.stream]; st != nil {
		st.residents--
		s.pruneLocked(meta.stream)
	}
}

// evictToBudgetLocked evicts least-recently-used entries until the byte
// budget holds. Caller holds mu.
func (s *Store) evictToBudgetLocked() {
	for s.bytes > s.budget && s.ll.Len() > 0 {
		el := s.ll.Back()
		if el == nil {
			return
		}
		s.evictions++
		s.removeLocked(el)
	}
}
