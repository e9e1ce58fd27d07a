package results

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/lru"
	"repro/internal/ops"
	"repro/internal/retrieve"
)

// fakeKV is a map-backed KV with injectable failures, standing in for the
// tiered engine in unit tests.
type fakeKV struct {
	m       map[string][]byte
	failPut bool
	puts    int
	deletes int
}

func newFakeKV() *fakeKV { return &fakeKV{m: map[string][]byte{}} }

func (f *fakeKV) Put(key string, value []byte) error {
	if f.failPut {
		return fmt.Errorf("fakekv: put disabled")
	}
	f.puts++
	f.m[key] = append([]byte(nil), value...)
	return nil
}

func (f *fakeKV) Get(key string) ([]byte, error) {
	v, ok := f.m[key]
	if !ok {
		return nil, fmt.Errorf("fakekv: %q not found", key)
	}
	return append([]byte(nil), v...), nil
}

func (f *fakeKV) Delete(key string) error {
	f.deletes++
	delete(f.m, key)
	return nil
}

func (f *fakeKV) Keys(prefix string) []string {
	var out []string
	for k := range f.m {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

func testEntry(seed int) Entry {
	return Entry{
		PTS: []int{seed, seed + 3, seed + 7},
		Detections: []ops.Detection{
			{PTS: seed, Label: "car", X: 0.25 + float64(seed), Y: -1.5},
			{PTS: seed + 3, Label: "person", X: 3.125, Y: 0.0625},
		},
		Retrieval: retrieveStats(seed),
		Consumption: ops.Stats{
			Pixels: int64(seed) * 1024,
			Work:   int64(seed) * 7,
			Frames: int64(seed) + 3,
		},
	}
}

func retrieveStats(seed int) retrieve.Stats {
	return retrieve.Stats{
		BytesRead:       int64(seed) * 100,
		FramesDecoded:   int64(seed) + 30,
		FramesDelivered: int64(seed) + 3,
		VirtualSeconds:  float64(seed) * 0.125, // exact in binary
	}
}

func testKey(stream string, seg int, op string) Key {
	return Key{Stream: stream, Seg: seg, Op: op, SF: "sf0", CF: "cf0", Span: ""}
}

// mustCheckInvariants asserts that the adapter's three records agree: the
// index (lru.Cache), the per-segment bySeg sets and the persisted values.
// Every resident entry is registered under exactly the segments it covers
// and nowhere else, no bySeg set is empty, the kvstore holds exactly the
// resident keys, and the accounted bytes are the resident entries'
// footprints, within budget. (The index's own structure — list, map,
// generation state — is package lru's, checked there.)
func mustCheckInvariants(t *testing.T, s *Store, step string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.idx.Stats()
	if st.Bytes > st.Budget {
		t.Fatalf("%s: bytes %d > budget %d", step, st.Bytes, st.Budget)
	}
	registered := map[string]int{} // key -> bySeg sets holding it
	for sp, set := range s.bySeg {
		if len(set) == 0 {
			t.Fatalf("%s: empty bySeg set %q not pruned", step, sp)
		}
		for key := range set {
			registered[key]++
		}
	}
	if len(registered) != st.Entries {
		t.Fatalf("%s: bySeg registers %d keys, index holds %d entries", step, len(registered), st.Entries)
	}
	var sum int64
	for key, n := range registered {
		m, ok := s.idx.Peek(key)
		if !ok {
			t.Fatalf("%s: bySeg registers %q, which the index does not hold", step, key)
		}
		if len(m.segs) == 0 || len(m.segs) != n {
			t.Fatalf("%s: entry %q covers %v but sits in %d bySeg sets", step, key, m.segs, n)
		}
		for _, seg := range m.segs {
			if _, ok := s.bySeg[segPrefix(m.stream, seg)][key]; !ok {
				t.Fatalf("%s: entry %q not registered under covered segment %d", step, key, seg)
			}
		}
		if _, err := s.kv.Get(key); err != nil {
			t.Fatalf("%s: resident entry %q has no persisted value: %v", step, key, err)
		}
		sum += m.ent.footprint()
	}
	if sum != st.Bytes {
		t.Fatalf("%s: accounted %d bytes, resident entries' footprints sum to %d", step, st.Bytes, sum)
	}
	if keys := s.kv.Keys(Prefix); len(keys) != st.Entries {
		t.Fatalf("%s: kvstore holds %d keys under %s, index %d entries: %v", step, len(keys), Prefix, st.Entries, keys)
	}
}

// fill performs the full miss-then-put protocol for k.
func fill(t *testing.T, s *Store, k Key, e Entry) {
	t.Helper()
	if _, gen, ok := s.Get(k); ok {
		t.Fatalf("fill %v: unexpectedly resident", k)
	} else {
		s.Put(k, e, gen)
	}
}

func TestEntryRoundTrip(t *testing.T) {
	cases := []Entry{
		{}, // empty: no frames consumed, no detections
		testEntry(1),
		testEntry(42),
		{PTS: []int{0}, Retrieval: retrieveStats(9)},
		{Detections: []ops.Detection{{Label: "", X: -0.5, Y: 1e300}}},
	}
	for i, want := range cases {
		b := want.encode()
		got, err := decodeEntry(b)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Fatalf("case %d: roundtrip mismatch\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestEntryDecodeRejectsCorrupt(t *testing.T) {
	b := testEntry(7).encode()
	if _, err := decodeEntry(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	if _, err := decodeEntry([]byte{99}); err == nil {
		t.Fatal("unknown version decoded")
	}
	// Every truncation must be rejected: the decoder latches an error
	// instead of fabricating zeroes.
	for n := 1; n < len(b); n++ {
		if _, err := decodeEntry(b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(b))
		}
	}
	if _, err := decodeEntry(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	// A length prefix pointing past the buffer must fail the sanity bound,
	// not allocate.
	huge := []byte{entryVersion, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, err := decodeEntry(huge); err == nil {
		t.Fatal("oversized count decoded")
	}
}

func TestKeyEncodeDecode(t *testing.T) {
	for _, k := range []Key{
		testKey("cam", 0, "Diff"),
		testKey("a/b/c", 123, "NN"), // stream names may contain '/'
		{Stream: "cam", Seg: 7, Op: "S-NN", SF: "sf1", CF: "cf2", Span: "0:1,5:9"},
	} {
		enc := k.encode()
		if !strings.HasPrefix(enc, Prefix) {
			t.Fatalf("encoded key %q lacks prefix", enc)
		}
		stream, seg, ok := decodeKey(enc)
		if !ok || stream != k.Stream || seg != k.Seg {
			t.Fatalf("decodeKey(%q) = %q, %d, %v; want %q, %d", enc, stream, seg, ok, k.Stream, k.Seg)
		}
	}
	// Distinct operator/format/span tuples must not collide.
	a := testKey("cam", 0, "Diff").encode()
	b := testKey("cam", 0, "NN").encode()
	if a == b {
		t.Fatal("distinct operators share an encoded key")
	}
	for _, bad := range []string{"", "res/", "res/x", "res/cam/abc/digest", "res/cam/-0000001/d"} {
		if _, _, ok := decodeKey(bad); ok {
			t.Fatalf("malformed key %q decoded", bad)
		}
	}
}

func TestStoreGetPutHit(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := testKey("cam", 0, "Diff")
	want := testEntry(5)
	fill(t, s, k, want)
	mustCheckInvariants(t, s, "after fill")
	got, _, ok := s.Get(k)
	if !ok {
		t.Fatal("entry not resident after Put")
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("hit returned %+v, want %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 put / 1 entry", st)
	}
	if st.Bytes <= 0 || st.Bytes > st.Budget {
		t.Fatalf("stats bytes %d outside (0, budget]", st.Bytes)
	}
}

func TestStoreDisabledSentinel(t *testing.T) {
	if New(newFakeKV(), 0, nil) != nil {
		t.Fatal("zero budget did not return the disabled sentinel")
	}
	if New(newFakeKV(), -1, nil) != nil {
		t.Fatal("negative budget did not return the disabled sentinel")
	}
	var s *Store
	// Every nil-tolerant method must no-op; Get/Put are excluded by
	// contract (callers gate on a non-nil store).
	s.Abandon("cam")
	s.InvalidateSegment("cam", 0)
	s.Purge()
	s.Resize(1)
	if got := s.Stats(); got != (Stats{}) {
		t.Fatalf("nil store stats = %+v, want zeroes", got)
	}
}

func TestStoreLRUEviction(t *testing.T) {
	kv := newFakeKV()
	unit := testEntry(0).footprint()
	s := New(kv, 3*unit+unit/2, nil) // room for 3 entries
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = testKey("cam", i, "Diff")
	}
	for i := 0; i < 3; i++ {
		fill(t, s, keys[i], testEntry(0))
	}
	// Touch the oldest so the middle entry becomes LRU.
	if _, _, ok := s.Get(keys[0]); !ok {
		t.Fatal("keys[0] not resident")
	}
	fill(t, s, keys[3], testEntry(0))
	mustCheckInvariants(t, s, "after eviction")
	if _, _, ok := s.Get(keys[1]); ok {
		t.Fatal("LRU entry survived eviction")
	}
	s.Abandon("cam") // balance the probe miss
	for _, i := range []int{0, 2, 3} {
		if _, _, ok := s.Get(keys[i]); !ok {
			t.Fatalf("keys[%d] evicted out of LRU order", i)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v, want 1 eviction / 3 entries", st)
	}
	// The evicted entry's persisted value must be gone too.
	if _, err := kv.Get(keys[1].encode()); err == nil {
		t.Fatal("evicted entry still persisted")
	}
}

func TestStoreOversizedPut(t *testing.T) {
	kv := newFakeKV()
	small := Entry{PTS: []int{1}}
	s := New(kv, testEntry(0).footprint()+1, nil)
	k := testKey("cam", 0, "Diff")
	fill(t, s, k, small)
	mustCheckInvariants(t, s, "small resident")
	// A refresh that grew past the whole budget drops the resident entry
	// instead of serving a stale value under a fresh index.
	big := testEntry(0)
	for big.footprint() <= s.Stats().Budget {
		big.PTS = append(big.PTS, len(big.PTS))
	}
	if _, _, ok := s.Get(k); !ok {
		t.Fatal("small entry not resident")
	}
	// A hit carries no token; a refresh Put uses the current generation.
	s.Put(k, big, 0)
	mustCheckInvariants(t, s, "after oversized refresh")
	if _, _, ok := s.Get(k); ok {
		t.Fatal("oversized refresh left a resident entry")
	}
	s.Abandon("cam")
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v, want empty store", st)
	}
}

func TestStoreGenerationDropsRacingFill(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := testKey("cam", 3, "Diff")
	// The erosion race: a fill observes its miss, the segment is
	// invalidated, then the fill lands. It must be dropped — it may hold
	// pre-erosion results.
	_, gen, ok := s.Get(k)
	if ok {
		t.Fatal("unexpected hit")
	}
	s.InvalidateSegment("cam", 3)
	s.Put(k, testEntry(1), gen)
	mustCheckInvariants(t, s, "after racing fill")
	if _, _, ok := s.Get(k); ok {
		t.Fatal("stale fill landed across InvalidateSegment")
	}
	s.Abandon("cam")
	if st := s.Stats(); st.Dropped != 1 || st.Puts != 0 {
		t.Fatalf("stats = %+v, want 1 dropped / 0 puts", st)
	}
	mustCheckInvariants(t, s, "after the race")
}

func TestStoreInvalidateSegmentScope(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	fill(t, s, testKey("cam", 0, "Diff"), testEntry(1))
	fill(t, s, testKey("cam", 0, "NN"), testEntry(2))
	fill(t, s, testKey("cam", 1, "Diff"), testEntry(3))
	fill(t, s, testKey("other", 0, "Diff"), testEntry(4))

	s.InvalidateSegment("cam", 0)
	mustCheckInvariants(t, s, "after invalidate")
	if _, _, ok := s.Get(testKey("cam", 0, "Diff")); ok {
		t.Fatal("invalidated segment entry survived (Diff)")
	}
	s.Abandon("cam")
	if _, _, ok := s.Get(testKey("cam", 0, "NN")); ok {
		t.Fatal("invalidated segment entry survived (NN)")
	}
	s.Abandon("cam")
	// Other segments and other streams must stay resident. A fill begun
	// before the invalidation of cam must still be droppable, while
	// "other" is untouched.
	if _, _, ok := s.Get(testKey("cam", 1, "Diff")); !ok {
		t.Fatal("sibling segment dropped by segment invalidation")
	}
	if _, _, ok := s.Get(testKey("other", 0, "Diff")); !ok {
		t.Fatal("other stream dropped by segment invalidation")
	}
	if st := s.Stats(); st.Invalidations != 2 {
		t.Fatalf("stats = %+v, want 2 invalidations", st)
	}
	// Cross-stream isolation: a fill in flight on "other" survives an
	// invalidation of "cam".
	kOther := testKey("other", 1, "Diff")
	_, gen, _ := s.Get(kOther)
	s.InvalidateSegment("cam", 1)
	s.Put(kOther, testEntry(9), gen)
	if _, _, ok := s.Get(kOther); !ok {
		t.Fatal("cam's invalidation dropped other's in-flight fill")
	}
	mustCheckInvariants(t, s, "after cross-stream check")
}

func TestStoreGenerationStatePruned(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	// Churn through many stream names; each cycle ends with no residents
	// and no in-flight fills, so the generation map must not grow.
	for i := 0; i < 100; i++ {
		stream := fmt.Sprintf("stream-%d", i)
		k := testKey(stream, 0, "Diff")
		fill(t, s, k, testEntry(i))
		s.InvalidateSegment(stream, 0)

		// Abandon path: a miss whose retrieval failed.
		k2 := testKey(stream+"-err", 0, "Diff")
		if _, _, ok := s.Get(k2); ok {
			t.Fatal("unexpected hit")
		}
		s.Abandon(stream + "-err")
	}
	if n := s.idx.Stats().Groups; n != 0 {
		t.Fatalf("generation map holds %d states after full churn, want 0", n)
	}
	mustCheckInvariants(t, s, "after churn")
}

func TestStoreReopenAdoption(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	fill(t, s, testKey("cam", 0, "Diff"), testEntry(1))
	fill(t, s, testKey("cam", 1, "Diff"), testEntry(2))
	fill(t, s, testKey("cam", 2, "Diff"), testEntry(3))

	// Garbage under the prefix (a foreign write) must be deleted, not
	// adopted.
	if err := kv.Put(Prefix+"garbage", []byte("x")); err != nil {
		t.Fatal(err)
	}

	// Reopen over the same kv: segment 1 was eroded while no store was
	// attached, so the valid filter rejects it.
	s2 := New(kv, 1<<20, func(stream string, seg int) bool {
		return stream == "cam" && seg != 1
	})
	mustCheckInvariants(t, s2, "after reopen")
	if _, _, ok := s2.Get(testKey("cam", 0, "Diff")); !ok {
		t.Fatal("valid entry not adopted on reopen")
	}
	if _, _, ok := s2.Get(testKey("cam", 1, "Diff")); ok {
		t.Fatal("eroded segment's entry adopted on reopen")
	}
	s2.Abandon("cam")
	if _, err := kv.Get(testKey("cam", 1, "Diff").encode()); err == nil {
		t.Fatal("rejected entry still persisted after reopen")
	}
	if _, err := kv.Get(Prefix + "garbage"); err == nil {
		t.Fatal("garbage key survived reopen")
	}

	// Reopening under a tiny budget must evict down to it.
	unit := testEntry(1).footprint()
	s3 := New(kv, unit+unit/2, nil)
	mustCheckInvariants(t, s3, "after tight reopen")
	if st := s3.Stats(); st.Entries != 1 {
		t.Fatalf("tight reopen kept %d entries, want 1", st.Entries)
	}
}

func TestStoreCorruptValueReadsAsMiss(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := testKey("cam", 0, "Diff")
	fill(t, s, k, testEntry(1))
	// Corrupt the persisted value behind the index's back. Hits are served
	// from memory, so the damage is never read: a hit returns the entry that
	// landed.
	kv.m[k.encode()] = []byte{0xff, 0xff}
	got, _, ok := s.Get(k)
	if !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", testEntry(1)) {
		t.Fatalf("hit after corruption = %+v, %v; want the landed entry", got, ok)
	}
	mustCheckInvariants(t, s, "after corruption")
	// A reopen adopts only what decodes: the corrupt value reads as a miss,
	// and is deleted rather than adopted.
	s2 := New(kv, 1<<20, nil)
	mustCheckInvariants(t, s2, "after reopen")
	if _, _, ok := s2.Get(k); ok {
		t.Fatal("corrupt value adopted on reopen")
	}
	s2.Abandon("cam")
	if _, err := kv.Get(k.encode()); err == nil {
		t.Fatal("corrupt value still persisted after reopen")
	}
}

func TestStorePutKVErrorDropsResident(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := testKey("cam", 0, "Diff")
	fill(t, s, k, testEntry(1))
	kv.failPut = true
	if _, _, ok := s.Get(k); !ok {
		t.Fatal("entry not resident")
	}
	s.Put(k, testEntry(2), 0)
	mustCheckInvariants(t, s, "after failed refresh")
	// The persisted value is unknown after a failed Put: the resident
	// entry must be gone rather than risk index/kv disagreement.
	kv.failPut = false
	if _, _, ok := s.Get(k); ok {
		t.Fatal("resident entry survived a failed kv put")
	}
	s.Abandon("cam")
}

func TestStoreRangeEntries(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := Key{Stream: "cam", Seg: 0, End: 4, Op: "Diff", SF: "sf0", CF: "cf0"}
	covered := []int{0, 1, 2, 3}
	ent := testEntry(3)
	ent.Segs = covered

	// Range and point keys sharing a start segment must not collide.
	if k.encode() == testKey("cam", 0, "Diff").encode() {
		t.Fatal("range key collides with the point key at its start segment")
	}

	if _, gen, ok := s.GetRange(k, covered); ok {
		t.Fatal("unexpected hit")
	} else {
		s.Put(k, ent, gen)
	}
	mustCheckInvariants(t, s, "after range fill")
	got, _, ok := s.GetRange(k, covered)
	if !ok {
		t.Fatal("range entry not resident")
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", ent) {
		t.Fatal("range hit returned a different entry")
	}

	// A caller whose snapshot would retrieve a different segment set must
	// miss — the entry stays resident for snapshots that still match.
	if _, _, ok := s.GetRange(k, []int{0, 1, 3}); ok {
		t.Fatal("range entry served to a mismatched coverage set")
	}
	s.Abandon("cam")
	if _, _, ok := s.GetRange(k, covered); !ok {
		t.Fatal("mismatched lookup evicted the still-valid entry")
	}

	// Invalidating ANY covered segment drops the entry, not just the key's
	// start segment.
	s.InvalidateSegment("cam", 2)
	mustCheckInvariants(t, s, "after middle-segment invalidation")
	if _, _, ok := s.GetRange(k, covered); ok {
		t.Fatal("range entry survived invalidation of a covered segment")
	}
	s.Abandon("cam")

	// A refresh that shrinks the coverage re-registers: the dropped
	// segment's invalidation no longer finds it, the kept ones still do.
	_, gen, _ := s.GetRange(k, covered)
	s.Put(k, ent, gen)
	shrunk := testEntry(4)
	shrunk.Segs = []int{0, 1, 3}
	_, gen, _ = s.GetRange(k, shrunk.Segs) // coverage mismatch: miss with token
	s.Put(k, shrunk, gen)
	mustCheckInvariants(t, s, "after shrinking refresh")
	s.InvalidateSegment("cam", 2)
	if _, _, ok := s.GetRange(k, shrunk.Segs); !ok {
		t.Fatal("refresh left a stale registration under a dropped segment")
	}
	s.InvalidateSegment("cam", 3)
	if _, _, ok := s.GetRange(k, shrunk.Segs); ok {
		t.Fatal("refresh lost the registration under a kept segment")
	}
	s.Abandon("cam")
	s.Abandon("cam")
	mustCheckInvariants(t, s, "after refresh checks")
}

func TestStoreRangeReopenAdoption(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	k := Key{Stream: "cam", Seg: 0, End: 3, Op: "Diff", SF: "sf0", CF: "cf0"}
	ent := testEntry(2)
	ent.Segs = []int{0, 1, 2}
	_, gen, _ := s.GetRange(k, ent.Segs)
	s.Put(k, ent, gen)

	// Reopen with segment 2 gone: the range entry covers it, so it must be
	// rejected and deleted, even though its key sits under segment 0.
	s2 := New(kv, 1<<20, func(stream string, seg int) bool { return seg != 2 })
	mustCheckInvariants(t, s2, "after reopen")
	if _, _, ok := s2.GetRange(k, ent.Segs); ok {
		t.Fatal("range entry covering an invalid segment adopted on reopen")
	}
	s2.Abandon("cam")
	if _, err := kv.Get(k.encode()); err == nil {
		t.Fatal("rejected range entry still persisted")
	}
}

func TestStorePurgeAndResize(t *testing.T) {
	kv := newFakeKV()
	s := New(kv, 1<<20, nil)
	for i := 0; i < 5; i++ {
		fill(t, s, testKey("cam", i, "Diff"), testEntry(i))
	}
	unit := testEntry(0).footprint()
	s.Resize(2 * unit)
	mustCheckInvariants(t, s, "after shrink")
	if st := s.Stats(); st.Entries > 2 {
		t.Fatalf("%d entries after shrinking to 2 units", st.Entries)
	}
	s.Purge()
	mustCheckInvariants(t, s, "after purge")
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats = %+v after purge, want empty", st)
	}
	if keys := kv.Keys(Prefix); len(keys) != 0 {
		t.Fatalf("purge left %d persisted keys", len(keys))
	}
}

// TestStorePropertyIndexSegsAndKVAgree drives the adapter with seeded random
// operations — point and range fills, fills that race an invalidation,
// coverage-mismatched lookups, segment invalidation, resize, a value
// corrupted at rest (still served from memory, dropped by the next reopen),
// a failing kvstore, and a reopen with a validity filter — and after
// every step checks that the index, the bySeg sets and the kvstore contents
// agree (mustCheckInvariants), that a hit returns the last entry that landed
// under its key, and that an entry covering an invalidated segment is gone.
// Every miss is balanced, so the store must end with no generation state.
func TestStorePropertyIndexSegsAndKVAgree(t *testing.T) {
	streams := []string{"a", "b"}
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			kv := newFakeKV()
			unit := testEntry(0).footprint()
			s := New(kv, int64(3+rng.Intn(6))*unit, nil)
			landed := map[string]Entry{} // encoded key -> last entry whose Put may have landed
			covers := map[string][]int{} // encoded key -> segments that entry covers
			gone := map[string]bool{}    // "stream/seg" invalidated and not refilled since
			corrupt := map[string]bool{} // encoded key whose persisted value was damaged since it landed
			type pending struct {
				k     Key
				e     Entry
				tok   lru.Token
				stale bool
			}
			var fills []pending
			randKey := func() (Key, Entry) {
				stream := streams[rng.Intn(len(streams))]
				seg := rng.Intn(4)
				e := testEntry(rng.Intn(1000))
				if rng.Intn(3) == 0 { // a range entry over a random covered subset
					k := Key{Stream: stream, Seg: seg, End: seg + 3, Op: "Diff", SF: "sf0", CF: "cf0"}
					for sg := seg; sg < seg+3; sg++ {
						if sg == seg || rng.Intn(2) == 0 {
							e.Segs = append(e.Segs, sg)
						}
					}
					return k, e
				}
				return testKey(stream, seg, []string{"Diff", "NN"}[rng.Intn(2)]), e
			}
			land := func(p pending) {
				s.Put(p.k, p.e, p.tok)
				if p.stale || kv.failPut {
					return
				}
				delete(corrupt, p.k.encode())
				landed[p.k.encode()] = p.e
				covers[p.k.encode()] = coveredSegs(p.e, p.k.Seg)
				for _, sg := range covers[p.k.encode()] {
					delete(gone, fmt.Sprintf("%s/%d", p.k.Stream, sg))
				}
			}
			for op := 0; op < 300; op++ {
				k, e := randKey()
				switch rng.Intn(10) {
				case 0, 1, 2: // lookup; fill on a miss
					got, tok, ok := s.GetRange(k, e.Segs)
					if !ok {
						land(pending{k: k, e: e, tok: tok})
						break
					}
					if want := landed[k.encode()]; fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
						t.Fatalf("op %d: hit on %v returned %+v, last landed %+v", op, k, got, want)
					}
					for _, sg := range covers[k.encode()] {
						if gone[fmt.Sprintf("%s/%d", k.Stream, sg)] {
							t.Fatalf("op %d: hit on %v, which covers invalidated segment %d", op, k, sg)
						}
					}
				case 3: // observe a miss, leave the fill in flight
					if _, tok, ok := s.GetRange(k, e.Segs); !ok {
						fills = append(fills, pending{k: k, e: e, tok: tok})
					}
				case 4: // land or abandon a fill in flight
					if len(fills) == 0 {
						continue
					}
					i := rng.Intn(len(fills))
					p := fills[i]
					fills = append(fills[:i], fills[i+1:]...)
					if rng.Intn(4) == 0 {
						s.Abandon(p.k.Stream)
					} else {
						land(p)
					}
				case 5: // erosion removes one segment
					s.InvalidateSegment(k.Stream, k.Seg)
					gone[fmt.Sprintf("%s/%d", k.Stream, k.Seg)] = true
					for i := range fills {
						if fills[i].k.Stream == k.Stream {
							fills[i].stale = true
						}
					}
				case 6: // operator resize
					s.Resize(int64(1+rng.Intn(8)) * unit)
				case 7: // a value corrupted behind the index's back is never served
					if _, resident := s.idx.Peek(k.encode()); resident {
						kv.m[k.encode()] = []byte{0xff}
						corrupt[k.encode()] = true
						got, _, ok := s.GetRange(k, covers[k.encode()])
						if want := landed[k.encode()]; !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
							t.Fatalf("op %d: hit on %v after corruption = %+v, %v; last landed %+v", op, k, got, ok, want)
						}
					}
				case 8: // the kvstore refuses one write
					kv.failPut = true
					if _, tok, ok := s.GetRange(k, e.Segs); !ok {
						land(pending{k: k, e: e, tok: tok})
					}
					kv.failPut = false
				case 9: // restart: adopt what was persisted, minus one eroded segment
					if len(fills) > 0 {
						continue // a reopen with fills in flight is a different store's tokens
					}
					st := s.Stats()
					s = New(kv, st.Budget, func(stream string, seg int) bool {
						return stream != k.Stream || seg != k.Seg
					})
					gone[fmt.Sprintf("%s/%d", k.Stream, k.Seg)] = true
					for key := range corrupt {
						if _, ok := kv.m[key]; ok {
							t.Fatalf("op %d: reopen kept the corrupt value under %q", op, key)
						}
						delete(corrupt, key)
					}
				}
				mustCheckInvariants(t, s, fmt.Sprintf("op %d", op))
			}
			for _, p := range fills {
				s.Abandon(p.k.Stream)
			}
			if n := s.idx.Stats().Groups - residentStreams(s); n != 0 {
				t.Fatalf("%d generation states outlive their entries and fills", n)
			}
		})
	}
}

// residentStreams counts the streams with at least one resident entry.
func residentStreams(s *Store) int {
	seen := map[string]bool{}
	for sp := range s.bySeg {
		stream, _, _ := decodeKey(sp + "x")
		seen[stream] = true
	}
	return len(seen)
}
