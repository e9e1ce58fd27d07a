package tier

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/kvstore"
	"repro/internal/sched"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetAcrossTiers(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	if s.Shards() != 4 {
		t.Fatalf("Shards() = %d", s.Shards())
	}
	if err := s.Put("hot/a", []byte("fast bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTier(Cold, "archive/a", []byte("cold bytes")); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"hot/a": "fast bytes", "archive/a": "cold bytes"} {
		got, err := s.Get(key)
		if err != nil {
			t.Fatalf("Get(%q): %v", key, err)
		}
		if string(got) != want {
			t.Fatalf("Get(%q) = %q, want %q", key, got, want)
		}
		if !s.Has(key) {
			t.Fatalf("Has(%q) = false", key)
		}
	}
	if tid, ok := s.TierOf("hot/a"); !ok || tid != Fast {
		t.Fatalf("TierOf(hot/a) = %v, %v", tid, ok)
	}
	if tid, ok := s.TierOf("archive/a"); !ok || tid != Cold {
		t.Fatalf("TierOf(archive/a) = %v, %v", tid, ok)
	}
	if _, ok := s.TierOf("missing"); ok {
		t.Fatal("TierOf(missing) reported present")
	}
	if _, err := s.Get("missing"); err != kvstore.ErrNotFound {
		t.Fatalf("Get(missing) = %v", err)
	}
	if err := s.Delete("hot/a"); err != nil {
		t.Fatal(err)
	}
	if s.Has("hot/a") {
		t.Fatal("deleted key still present")
	}
}

// TestPutTierMovesKey: re-placing a key on the other tier must not leave
// a stale replica behind.
func TestPutTierMovesKey(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 2})
	if err := s.PutTier(Fast, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutTier(Cold, "k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if tid, _ := s.TierOf("k"); tid != Cold {
		t.Fatalf("TierOf after cold re-place = %v", tid)
	}
	if got, _ := s.Get("k"); string(got) != "v2" {
		t.Fatalf("Get = %q", got)
	}
	if keys := s.Keys(""); len(keys) != 1 {
		t.Fatalf("Keys = %v, want exactly one", keys)
	}
	if err := s.PutTier(Fast, "k", []byte("v3")); err != nil {
		t.Fatal(err)
	}
	if tid, _ := s.TierOf("k"); tid != Fast {
		t.Fatalf("TierOf after fast re-place = %v", tid)
	}
	if got, _ := s.Get("k"); string(got) != "v3" {
		t.Fatalf("Get = %q", got)
	}
}

// TestKeysMergeSortedAcrossShardsAndTiers: enumeration is sorted,
// deduplicated, and identical whatever the shard count.
func TestKeysMergeSortedAcrossShardsAndTiers(t *testing.T) {
	var want []string
	for i := 0; i < 40; i++ {
		want = append(want, fmt.Sprintf("seg/cam/%08d", i))
	}
	sort.Strings(want)
	for _, shards := range []int{1, 4, 16} {
		s := openTest(t, t.TempDir(), Options{Shards: shards})
		for i, k := range want {
			tid := Fast
			if i%3 == 0 {
				tid = Cold
			}
			if err := s.PutTier(tid, k, []byte(k)); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Keys("seg/"); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: Keys = %d entries, want %d sorted", shards, len(got), len(want))
		}
		var scanned []string
		if err := s.Scan("seg/", func(k string, v []byte) bool {
			if string(v) != k {
				t.Fatalf("Scan value mismatch for %q", k)
			}
			scanned = append(scanned, k)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(scanned, want) {
			t.Fatalf("shards=%d: Scan order differs from sorted keys", shards)
		}
	}
}

func TestRouteCoLocatesTokens(t *testing.T) {
	route := func(key string) string { return key[:1] } // first byte routes
	s := openTest(t, t.TempDir(), Options{Shards: 8, Route: route})
	for i := 0; i < 16; i++ {
		if err := s.Put(fmt.Sprintf("a/%02d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// All "a"-routed keys share one shard: exactly one fast shard is
	// non-empty.
	nonEmpty := 0
	for _, kv := range s.fast {
		if kv.Len() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("co-routed keys landed on %d shards", nonEmpty)
	}
}

func TestDemoteMovesBytesAndPreservesContent(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	var keys []string
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("seg/cam/%08d", i)
		keys = append(keys, k)
		if err := s.Put(k, bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.TierBytes(Cold); got != 0 {
		t.Fatalf("cold bytes before demotion = %d", got)
	}
	fastBefore := s.TierBytes(Fast)
	if err := s.Demote(keys[:5]); err != nil {
		t.Fatal(err)
	}
	// Demoting again (and demoting a missing key) is a no-op.
	if err := s.Demote(append([]string{"missing"}, keys[:5]...)); err != nil {
		t.Fatal(err)
	}
	if got := s.TierBytes(Fast); got != fastBefore/2 {
		t.Fatalf("fast bytes after demotion = %d, want %d", got, fastBefore/2)
	}
	if got := s.TierBytes(Cold); got != fastBefore/2 {
		t.Fatalf("cold bytes after demotion = %d, want %d", got, fastBefore/2)
	}
	for i, k := range keys {
		v, err := s.Get(k)
		if err != nil {
			t.Fatalf("Get(%q) after demotion: %v", k, err)
		}
		if !bytes.Equal(v, bytes.Repeat([]byte{byte(i)}, 100)) {
			t.Fatalf("demoted key %q changed bytes", k)
		}
	}
	st := s.Stats()
	if st.FastKeys != 5 || st.ColdKeys != 5 || st.Shards != 4 {
		t.Fatalf("stats after demotion = %+v", st)
	}
	if st.Keys != 10 || st.LiveBytes != st.FastLiveBytes+st.ColdLiveBytes {
		t.Fatalf("aggregate stats inconsistent: %+v", st)
	}
}

// TestCrashRecoveryMidDemotion simulates a crash in the window the
// two-phase migration leaves open — every cold copy written, no fast
// delete applied — plus a half-copied tail, and asserts Open settles
// every key into exactly one tier with its bytes intact.
func TestCrashRecoveryMidDemotion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string][]byte{}
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("seg/cam/%08d", i)
		vals[k] = bytes.Repeat([]byte{byte('A' + i)}, 64)
		if err := s.Put(k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	// Crash simulation: write cold copies directly (the copy phase) for
	// half the keys and never delete the fast originals.
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("seg/cam/%08d", i)
		if err := s.cold[s.shardOf(k)].Put(k, vals[k]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Shards() != 4 {
		t.Fatalf("reopened shards = %d, want 4 from disk layout", re.Shards())
	}
	keys := re.Keys("")
	if len(keys) != len(vals) {
		t.Fatalf("reopened store has %d keys, want %d (no loss, no duplicates)", len(keys), len(vals))
	}
	for k, want := range vals {
		got, err := re.Get(k)
		if err != nil {
			t.Fatalf("Get(%q): %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("key %q bytes changed across crash recovery", k)
		}
		// Exactly one tier holds each key: recovery completed the
		// interrupted migrations (cold wins) and left the rest fast.
		i := re.shardOf(k)
		inFast, inCold := re.fast[i].Has(k), re.cold[i].Has(k)
		if inFast == inCold {
			t.Fatalf("key %q live in fast=%v cold=%v", k, inFast, inCold)
		}
	}
	st := re.Stats()
	if st.FastKeys != 4 || st.ColdKeys != 4 {
		t.Fatalf("recovered tier split = %+v", st)
	}
}

// TestCrashRecoveryReplacedKeyKeepsFast covers the inverse interruption:
// PutTier(Fast) over a cold key writes the new fast value first and
// deletes the stale cold copy second, so a crash between the two leaves
// DIFFERENT bytes in the tiers. Recovery must keep the newer fast write
// and drop the stale cold copy — never resurrect old data.
func TestCrashRecoveryReplacedKeyKeepsFast(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutTier(Cold, "k", []byte("stale cold value")); err != nil {
		t.Fatal(err)
	}
	// Crash simulation: the fast write of a re-place landed, the cold
	// delete did not.
	if err := s.fast[s.shardOf("k")].Put("k", []byte("fresh fast value")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.Get("k")
	if err != nil || string(got) != "fresh fast value" {
		t.Fatalf("recovery served %q, %v; want the fresh fast value", got, err)
	}
	if tid, ok := re.TierOf("k"); !ok || tid != Fast {
		t.Fatalf("TierOf after recovery = %v, %v", tid, ok)
	}
	if st := re.Stats(); st.FastKeys != 1 || st.ColdKeys != 0 {
		t.Fatalf("stale cold copy survived recovery: %+v", st)
	}
}

// TestLegacyMigration: a single-store layout (logs directly in the
// directory) is no longer migrated. Open refuses it with an error naming
// the loose file, and leaves the directory as it found it.
func TestLegacyMigration(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.Open(dir, kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put("seg/cam/00000000", []byte("legacy")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	before, _ := filepath.Glob(filepath.Join(dir, "*"))
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	if len(logs) == 0 {
		t.Fatal("fixture wrote no log file")
	}
	_, err = Open(dir, Options{Shards: 8})
	if err == nil {
		t.Fatal("single-store layout accepted")
	}
	if name := filepath.Base(logs[0]); !strings.Contains(err.Error(), name) {
		t.Fatalf("error %q does not name the loose log %s", err, name)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "*")); !reflect.DeepEqual(after, before) {
		t.Fatalf("rejected Open changed the directory: %v -> %v", before, after)
	}
}

func TestCompactShardsParallel(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 4})
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("k/%04d", i)
		if err := s.Put(k, bytes.Repeat([]byte{1}, 256)); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Demote(s.Keys("k/")[:4]); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.GarbageBytes == 0 {
		t.Fatal("no garbage to compact")
	}
	before := s.Keys("")
	// A pool as wide as the compactions lends the caller a helper for
	// every compaction but its own at once, so per-shard compactions run
	// concurrently and their races are visible to -race.
	if err := s.CompactShards(sched.NewPool(2 * s.Shards())); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.GarbageBytes != 0 {
		t.Fatalf("garbage after compaction: %+v", st)
	}
	if after := s.Keys(""); !reflect.DeepEqual(before, after) {
		t.Fatal("compaction changed the key set")
	}
	// Sequential compaction path (nil pool) also works.
	if err := s.CompactShards(nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompactShardsAttemptsEveryShard: a compaction failing on one shard
// does not stop the others, sequentially or on a pool — the failure is
// returned and every other shard of both tiers is left without garbage.
func TestCompactShardsAttemptsEveryShard(t *testing.T) {
	rules, err := fault.Parse("compact@fast/000=err:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []*sched.Pool{nil, sched.NewPool(3)} {
		s := openTest(t, t.TempDir(), Options{Shards: 4})
		// Garbage on every shard of both tiers: a dead record beside a live
		// one, until each shard has one.
		for i := 0; ; i++ {
			dirty := true
			for _, tid := range []ID{Fast, Cold} {
				for _, kv := range s.tier(tid) {
					dirty = dirty && kv.Stats().GarbageBytes > 0
				}
			}
			if dirty {
				break
			}
			k := fmt.Sprintf("k/%04d", i)
			if err := s.PutTier(ID(i%2), k, bytes.Repeat([]byte{1}, 64)); err != nil {
				t.Fatal(err)
			}
			if err := s.PutTier(ID(i%2), k+"/dead", []byte{2}); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete(k + "/dead"); err != nil {
				t.Fatal(err)
			}
		}
		before := s.Keys("")
		fault.Install(fault.New(1, rules))
		err := s.CompactShards(pool)
		fault.Install(nil)
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("pool=%v: CompactShards = %v, want the injected error", pool != nil, err)
		}
		for _, tid := range []ID{Fast, Cold} {
			for i, kv := range s.tier(tid) {
				g := kv.Stats().GarbageBytes
				if tid == Fast && i == 0 {
					if g == 0 {
						t.Fatalf("pool=%v: the failed shard was compacted", pool != nil)
					}
				} else if g != 0 {
					t.Fatalf("pool=%v: %s/%03d keeps %d garbage bytes after a failure on fast/000", pool != nil, tid, i, g)
				}
			}
		}
		if after := s.Keys(""); !reflect.DeepEqual(before, after) {
			t.Fatal("compaction changed the key set")
		}
	}
}

// TestConcurrentAccessAcrossShards: puts, demotions, reads and scans on
// distinct shards proceed concurrently without data races.
func TestConcurrentAccessAcrossShards(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{Shards: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				k := fmt.Sprintf("w%d/%04d", w, i)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					if err := s.Demote([]string{k}); err != nil {
						t.Error(err)
						return
					}
				}
				if _, err := s.Get(k); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			s.Keys("")
			s.Stats()
			s.TierBytes(Fast)
		}
	}()
	wg.Wait()
	<-done
	if got := len(s.Keys("")); got != 160 {
		t.Fatalf("lost keys under concurrency: %d", got)
	}
}

func TestShardMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	// A cold tier wider than fast is structurally impossible for this
	// engine; refuse to guess.
	if err := os.MkdirAll(filepath.Join(dir, "fast", "000"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"000", "001"} {
		if err := os.MkdirAll(filepath.Join(dir, "cold", d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mismatched tier layout accepted")
	}
}

// TestLegacyBesideTieredRejected: a loose log next to an existing tiered
// layout is refused too, and the error names it.
func TestLegacyBesideTieredRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000001.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "000001.log") {
		t.Fatalf("mixed legacy/tiered layout: err = %v, want one naming 000001.log", err)
	}
}
