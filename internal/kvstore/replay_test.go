package kvstore

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// storeWithTail writes a few records to a fresh store in dir, closes it and
// appends tail to its newest log, as a crash mid-write or damage would.
func storeWithTail(t testing.TB, dir string, tail []byte) {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := s.Put(k, []byte("value of "+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "*"+logSuffix))
	if err != nil || len(logs) == 0 {
		t.Fatalf("glob: %v %v", logs, err)
	}
	f, err := os.OpenFile(logs[len(logs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// openAllocated opens dir and returns the store and the bytes Open allocated.
func openAllocated(t testing.TB, dir string) (*Store, uint64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, after.TotalAlloc - before.TotalAlloc
}

// TestTornLengthAllocatesNothing tears the newest log 15 bytes into a
// record whose value length reads 2³⁰-1: replay must see that the file
// cannot hold it before allocating its body.
func TestTornLengthAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	tail := make([]byte, 15)
	binary.BigEndian.PutUint32(tail[4:], 3)
	binary.BigEndian.PutUint32(tail[8:], maxValLen-1)
	copy(tail[recHeaderSize:], "key")
	storeWithTail(t, dir, tail)
	s, alloc := openAllocated(t, dir)
	defer s.Close()
	if alloc > 1<<20 {
		t.Fatalf("Open allocated %d bytes for a 15-byte torn tail", alloc)
	}
	if v, err := s.Get("c"); err != nil || string(v) != "value of c" {
		t.Fatalf("Get(c) before the torn tail = %q, %v", v, err)
	}
	if s.Has("key") {
		t.Fatal("the torn record was indexed")
	}
}

// FuzzReplay appends any bytes after valid records in the newest log. Open
// must not panic or allocate more than the input can account for, every
// key it lists must read back or fail with ErrCorrupt, and a second Open
// must see the same keys.
func FuzzReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 3, 0x3f, 0xff, 0xff, 0xff, 'k', 'e', 'y'})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 'a'})
	f.Add([]byte{1, 2, 3, 4, 0, 0, 0, 1, 0, 0, 0, 2, 'z', 'h', 'i'})
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		storeWithTail(t, dir, tail)
		s, alloc := openAllocated(t, dir)
		if limit := uint64(1<<20 + 4*len(tail)); alloc > limit {
			t.Fatalf("Open allocated %d bytes for a %d-byte tail", alloc, len(tail))
		}
		keys := s.Keys("")
		for _, k := range keys {
			if _, err := s.Get(k); err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Get(%q) = %v", k, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer again.Close()
		if got := again.Keys(""); !slices.Equal(got, keys) {
			t.Fatalf("second Open lists %q, the first %q", got, keys)
		}
	})
}
