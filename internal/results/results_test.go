package results

import (
	"fmt"
	"sort"
	"strings"
	"testing"

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

// mustCheckInvariants asserts the structural invariants every operation
// sequence must preserve: budget holds, byte accounting is exact, the
// list/map/bySeg indexes agree, and generation states are exactly those
// with residents or in-flight fills.
func mustCheckInvariants(t *testing.T, s *Store, step string) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.bytes > s.budget {
		t.Fatalf("%s: bytes %d > budget %d", step, s.bytes, s.budget)
	}
	if s.ll.Len() != len(s.entries) {
		t.Fatalf("%s: list has %d entries, map %d", step, s.ll.Len(), len(s.entries))
	}
	var sum int64
	var registrations int
	residents := map[string]int{}
	segCounts := map[string]int{}
	for el := s.ll.Front(); el != nil; el = el.Next() {
		meta := el.Value.(*entryMeta)
		if got, ok := s.entries[meta.key]; !ok || got != el {
			t.Fatalf("%s: list entry %q not in map", step, meta.key)
		}
		if len(meta.segs) == 0 {
			t.Fatalf("%s: entry %q registered under no segments", step, meta.key)
		}
		sum += meta.bytes
		residents[meta.stream]++
		registrations += len(meta.segs)
		for _, seg := range meta.segs {
			segCounts[segPrefix(meta.stream, seg)]++
		}
	}
	if sum != s.bytes {
		t.Fatalf("%s: accounted %d bytes, entries hold %d", step, s.bytes, sum)
	}
	var bySegTotal int
	for sp, set := range s.bySeg {
		if len(set) == 0 {
			t.Fatalf("%s: empty bySeg set %q not pruned", step, sp)
		}
		if len(set) != segCounts[sp] {
			t.Fatalf("%s: bySeg[%q] has %d entries, list holds %d", step, sp, len(set), segCounts[sp])
		}
		bySegTotal += len(set)
	}
	if bySegTotal != registrations {
		t.Fatalf("%s: bySeg holds %d registrations, entries carry %d", step, bySegTotal, registrations)
	}
	for stream, st := range s.gens {
		if st.inflight < 0 {
			t.Fatalf("%s: stream %q inflight %d < 0", step, stream, st.inflight)
		}
		if st.residents != residents[stream] {
			t.Fatalf("%s: stream %q state claims %d residents, index holds %d",
				step, stream, st.residents, residents[stream])
		}
		if st.inflight == 0 && st.residents == 0 {
			t.Fatalf("%s: stream %q state with no residents and no fills not pruned", step, stream)
		}
	}
	for stream, n := range residents {
		if n > 0 && s.gens[stream] == nil {
			t.Fatalf("%s: stream %q has %d residents but no generation state", step, stream, n)
		}
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
	unit := int64(len(testEntry(0).encode()))
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
	s := New(kv, int64(len(testEntry(0).encode()))+1, nil)
	k := testKey("cam", 0, "Diff")
	fill(t, s, k, small)
	mustCheckInvariants(t, s, "small resident")
	// A refresh that grew past the whole budget drops the resident entry
	// instead of serving a stale value under a fresh index.
	big := testEntry(0)
	for len(big.encode()) <= int(s.Stats().Budget) {
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
	s.mu.Lock()
	n := len(s.gens)
	s.mu.Unlock()
	if n != 0 {
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
	unit := int64(len(testEntry(1).encode()))
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
	// Corrupt the persisted value behind the index's back.
	kv.m[k.encode()] = []byte{0xff, 0xff}
	_, gen, ok := s.Get(k)
	if ok {
		t.Fatal("corrupt value served as a hit")
	}
	// The miss registered an in-flight fill; a clean refill must land.
	s.Put(k, testEntry(2), gen)
	mustCheckInvariants(t, s, "after refill")
	got, _, ok := s.Get(k)
	if !ok {
		t.Fatal("refill after corruption did not land")
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", testEntry(2)) {
		t.Fatal("refill served wrong entry")
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
	unit := int64(len(testEntry(0).encode()))
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
