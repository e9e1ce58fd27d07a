package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func openTemp(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetDelete(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("a")
	if err != nil || string(v) != "hello" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := s.Put("a", []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("a")
	if string(v) != "world" {
		t.Fatalf("overwrite failed: %q", v)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: %v", err)
	}
	if err := s.Delete("missing"); err != nil {
		t.Fatalf("Delete missing key: %v", err)
	}
}

func TestEmptyAndLargeValues(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("empty", nil); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get("empty")
	if err != nil || len(v) != 0 {
		t.Fatalf("empty value: %q, %v", v, err)
	}
	big := make([]byte, 3<<20) // a segment-sized value
	for i := range big {
		big[i] = byte(i * 31)
	}
	if err := s.Put("big", big); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("big")
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("big value mismatch (err %v)", err)
	}
}

func TestKeyValidation(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("", []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Put(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i += 2 {
		if err := s.Delete(fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 75 {
		t.Fatalf("reopened store has %d keys, want 75", s2.Len())
	}
	v, err := s2.Get("k051")
	if err != nil || string(v) != "v51" {
		t.Fatalf("reopened Get = %q, %v", v, err)
	}
	if _, err := s2.Get("k000"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key resurrected: %v", err)
	}
}

func TestRotationAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 300)
	for i := 0; i < 40; i++ {
		if err := s.Put(fmt.Sprintf("key%02d", i), val); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Files < 3 {
		t.Fatalf("expected rotation, have %d files", st.Files)
	}
	s.Close()
	s2, err := Open(dir, Options{MaxFileBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 40 {
		t.Fatalf("after reopen: %d keys, want 40", s2.Len())
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Tear the last record: chop 30 bytes off the newest log.
	logs, err := filepath.Glob(filepath.Join(dir, "*.log"))
	if err != nil || len(logs) == 0 {
		t.Fatalf("glob: %v %v", logs, err)
	}
	last := logs[len(logs)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()-30); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn tail: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 9 {
		t.Fatalf("after torn tail: %d keys, want 9 (lost exactly the torn record)", s2.Len())
	}
	for i := 0; i < 9; i++ {
		if _, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("key k%d lost: %v", i, err)
		}
	}
	// The store must keep working after recovery.
	if err := s2.Put("post", []byte("recovery")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s2.Get("post"); string(v) != "recovery" {
		t.Fatal("write after recovery failed")
	}
}

func TestCorruptMiddleDetected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxFileBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	if len(logs) < 2 {
		t.Fatalf("want >=2 logs, have %d", len(logs))
	}
	// Flip a value byte in the middle of the FIRST log (offset 20 is
	// inside k00's value: 12-byte header + 3-byte key + 5). The frame is
	// intact, so Open tolerates it — the damage is indexed and surfaces
	// as ErrCorrupt on read, where the repair layer can act on it,
	// instead of making the whole shard unopenable.
	f, err := os.OpenFile(logs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 20); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, Options{MaxFileBytes: 256})
	if err != nil {
		t.Fatalf("reopen with framed corruption: %v", err)
	}
	if _, err := s2.Get("k00"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(k00) after reopen = %v, want ErrCorrupt", err)
	}
	for i := 1; i < 20; i++ {
		if _, err := s2.Get(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatalf("undamaged k%02d unreadable: %v", i, err)
		}
	}
	s2.Close()
	// Destroy record FRAMING in an old log (keyLen's high byte at offset
	// 4 makes the length implausible): replay cannot skip past it, and
	// torn-tail tolerance only applies to the newest log, so this is
	// still an Open error.
	f, err = os.OpenFile(logs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, 4); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("unframeable corruption in old log not detected")
	}
}

func TestScanAndKeys(t *testing.T) {
	s := openTemp(t, Options{})
	for _, k := range []string{"b/2", "a/1", "b/1", "c/9", "b/3"} {
		if err := s.Put(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := s.Keys("b/")
	want := []string{"b/1", "b/2", "b/3"}
	if len(keys) != 3 {
		t.Fatalf("Keys(b/) = %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("Keys(b/) = %v, want %v", keys, want)
		}
	}
	var got []string
	if err := s.Scan("b/", func(k string, v []byte) bool {
		if string(v) != k {
			t.Fatalf("scan value mismatch for %q: %q", k, v)
		}
		got = append(got, k)
		return len(got) < 2 // early stop after two
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("early stop honoured? got %v", got)
	}
}

func TestCompactReclaimsSpace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxFileBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	val := make([]byte, 512)
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			if err := s.Put(fmt.Sprintf("k%d", i), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	before, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := s.DiskBytes()
	if err != nil {
		t.Fatal(err)
	}
	if after >= before/2 {
		t.Fatalf("compaction ineffective: %d -> %d bytes", before, after)
	}
	if s.Len() != 10 {
		t.Fatalf("keys lost in compaction: %d", s.Len())
	}
	for i := 0; i < 10; i++ {
		v, err := s.Get(fmt.Sprintf("k%d", i))
		if err != nil || !bytes.Equal(v, val) {
			t.Fatalf("value lost in compaction: %v", err)
		}
	}
	if st := s.Stats(); st.GarbageBytes != 0 {
		t.Fatalf("garbage after compaction: %d", st.GarbageBytes)
	}
}

func TestCompactThenReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, Options{MaxFileBytes: 2048})
	for i := 0; i < 30; i++ {
		s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	for i := 0; i < 30; i += 3 {
		s.Delete(fmt.Sprintf("k%02d", i))
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 20 {
		t.Fatalf("after compact+reopen: %d keys, want 20", s2.Len())
	}
}

// TestModelConformance drives the store with a random operation sequence and
// cross-checks every observation against a plain map.
func TestModelConformance(t *testing.T) {
	s := openTemp(t, Options{MaxFileBytes: 2048})
	model := map[string][]byte{}
	r := rand.New(rand.NewSource(42))
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
	}
	for op := 0; op < 5000; op++ {
		k := keys[r.Intn(len(keys))]
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // put
			v := make([]byte, r.Intn(200))
			r.Read(v)
			if err := s.Put(k, v); err != nil {
				t.Fatal(err)
			}
			model[k] = v
		case 6, 7: // delete
			if err := s.Delete(k); err != nil {
				t.Fatal(err)
			}
			delete(model, k)
		case 8: // get
			got, err := s.Get(k)
			want, ok := model[k]
			if !ok {
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("op %d: Get(%q) = %v, want ErrNotFound", op, k, err)
				}
			} else if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("op %d: Get(%q) mismatch", op, k)
			}
		case 9: // occasionally compact
			if op%1000 == 999 {
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if s.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", s.Len(), len(model))
	}
	for k, want := range model {
		got, err := s.Get(k)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("final check %q: %v", k, err)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := openTemp(t, Options{MaxFileBytes: 8192})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%20)
				if err := s.Put(k, []byte(k)); err != nil {
					t.Error(err)
					return
				}
				if v, err := s.Get(k); err != nil || string(v) != k {
					t.Errorf("get %q: %q %v", k, v, err)
					return
				}
				if i%17 == 0 {
					s.Delete(k)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStatsAccounting(t *testing.T) {
	s := openTemp(t, Options{})
	s.Put("a", make([]byte, 100))
	s.Put("b", make([]byte, 50))
	st := s.Stats()
	if st.LiveBytes != 150 || st.Keys != 2 {
		t.Fatalf("stats = %+v", st)
	}
	s.Put("a", make([]byte, 10)) // supersedes 100 bytes
	st = s.Stats()
	if st.LiveBytes != 60 {
		t.Fatalf("live bytes after overwrite = %d, want 60", st.LiveBytes)
	}
	if st.GarbageBytes == 0 {
		t.Fatal("no garbage accounted after overwrite")
	}
}

func TestClosedStoreRejectsOps(t *testing.T) {
	s := openTemp(t, Options{})
	s.Put("k", []byte("v"))
	s.Close()
	if err := s.Put("k2", nil); err == nil {
		t.Error("Put on closed store succeeded")
	}
	if _, err := s.Get("k"); err == nil {
		t.Error("Get on closed store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// DiskBytes returns the total size of all log files on disk.
func (s *Store) DiskBytes() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for id := range s.files {
		fi, err := s.files[id].Stat()
		if err != nil {
			return 0, fmt.Errorf("kvstore: %w", err)
		}
		total += fi.Size()
	}
	return total, nil
}
