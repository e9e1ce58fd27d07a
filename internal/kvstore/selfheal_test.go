package kvstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// faults installs a fault injector for one test and guarantees it is
// removed afterwards, so no faults leak into other tests.
func faults(t *testing.T, seed uint64, spec string) *fault.Injector {
	t.Helper()
	rules, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(seed, rules)
	fault.Install(in)
	t.Cleanup(func() { fault.Install(nil) })
	return in
}

// TestGetVerifiesCRC is the regression test for the founding bug of this
// layer: Get used to return value bytes without checking the stored CRC,
// so one flipped bit in a closed log was served as valid data. It proves
// the old behaviour was wrong by reconstructing exactly what the old
// read path returned (a raw slice at the indexed offset — garbage, not
// an error) and then asserts the new read path reports ErrCorrupt.
func TestGetVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 512)
	if err := s.Put("seg", want); err != nil {
		t.Fatal(err)
	}
	loc := s.index["seg"]
	s.Close()

	// Flip one bit in the middle of the value, in the closed log.
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	f, err := os.OpenFile(logs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], loc.valOff+100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], loc.valOff+100); err != nil {
		t.Fatal(err)
	}

	// What the old code did: read loc.valLen bytes at loc.valOff and
	// return them. That read succeeds and yields garbage — one byte off
	// from what was stored — with no error. This is the served-garbage
	// proof.
	oldPath := make([]byte, loc.valLen)
	if _, err := f.ReadAt(oldPath, loc.valOff); err != nil {
		t.Fatalf("unverified read errored (it must not — that is the bug): %v", err)
	}
	if bytes.Equal(oldPath, want) {
		t.Fatal("bit flip did not change the value bytes")
	}
	f.Close()

	// The new read path refuses to serve it.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Get("seg"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	if errors.Is(err, ErrNotFound) {
		t.Fatal("ErrCorrupt must be distinct from ErrNotFound")
	}
	if got := s2.Stats().CorruptReads; got != 1 {
		t.Fatalf("CorruptReads = %d, want 1", got)
	}
}

func TestScanSurfacesCorrupt(t *testing.T) {
	s := openTemp(t, Options{})
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.DamageValue("k2"); err != nil {
		t.Fatal(err)
	}
	err := s.Scan("k", func(string, []byte) bool { return true })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan over damaged key = %v, want ErrCorrupt", err)
	}
}

func TestDamageValue(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := s.DamageValue("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("DamageValue(missing) = %v, want ErrNotFound", err)
	}
	if err := s.DamageValue("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after DamageValue = %v, want ErrCorrupt", err)
	}
	// A fresh Put of the same key heals it: the new record supersedes
	// the damaged one.
	if err := s.Put("k", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("k"); err != nil || string(v) != "fresh" {
		t.Fatalf("Get after rewrite = %q, %v", v, err)
	}
}

func TestVerifyAll(t *testing.T) {
	s := openTemp(t, Options{})
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 64)); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := s.VerifyAll()
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean store: bad=%v err=%v", bad, err)
	}
	for _, k := range []string{"k3", "k7"} {
		if err := s.DamageValue(k); err != nil {
			t.Fatal(err)
		}
	}
	bad, err = s.VerifyAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 2 || bad[0] != "k3" || bad[1] != "k7" {
		t.Fatalf("VerifyAll = %v, want [k3 k7]", bad)
	}
}

// TestCorruptionSurvivesReopen: framed damage must still be reported
// after a restart — replay indexes the record instead of dropping it, so
// the repair layer gets its chance.
func TestCorruptionSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", bytes.Repeat([]byte{9}, 128)); err != nil {
		t.Fatal(err)
	}
	if err := s.DamageValue("k"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if _, err := s2.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get after reopen = %v, want ErrCorrupt", err)
	}
}

// TestCorruptTombstoneSkippedAtReplay: a tombstone whose CRC fails must
// not delete anything — its key bytes cannot be trusted.
func TestCorruptTombstoneSkippedAtReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("keep", []byte("v")); err != nil {
		t.Fatal(err)
	}
	tombOff := s.actSize
	if err := s.Delete("keep"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Damage the tombstone's key bytes on disk.
	logs, _ := filepath.Glob(filepath.Join(dir, "*.log"))
	f, err := os.OpenFile(logs[0], os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF}, tombOff+recHeaderSize); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	// The delete is lost (its record is untrusted), so the key survives —
	// the safe direction: resurrected data beats wrongly deleted data.
	if v, err := s2.Get("keep"); err != nil || string(v) != "v" {
		t.Fatalf("Get(keep) = %q, %v; corrupt tombstone must not delete", v, err)
	}
}

// --- compaction under failure -----------------------------------------

func TestCompactFailureLeavesStoreIntact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxFileBytes: 512, FaultScope: "fast/000"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 30; i++ {
		if err := s.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 15; i++ { // build garbage so compaction has work
		if err := s.Delete(fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()

	// Fail the write of k25 — mid-way through the compaction copy loop,
	// after several staged records have already landed.
	faults(t, 1, "write@fast/000+k25=err")
	if err := s.Compact(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Compact under write faults = %v, want injected error", err)
	}
	fault.Install(nil)

	// No staging debris, and the store state is exactly as before.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("failed compaction left temp files: %v", tmps)
	}
	after := s.Stats()
	if after.Keys != before.Keys || after.LiveBytes != before.LiveBytes || after.GarbageBytes != before.GarbageBytes {
		t.Fatalf("failed compaction changed state: %+v -> %+v", before, after)
	}
	for i := 15; i < 30; i++ {
		if v, err := s.Get(fmt.Sprintf("k%02d", i)); err != nil || len(v) != 100 {
			t.Fatalf("k%02d after failed compaction: %v", i, err)
		}
	}
	// A clean retry succeeds and reclaims the garbage.
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if g := s.Stats().GarbageBytes; g != 0 {
		t.Fatalf("garbage after compaction = %d", g)
	}
}

func TestCompactSyncFailureCleansUp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FaultScope: "cold/001"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("vvvv")); err != nil {
			t.Fatal(err)
		}
	}
	faults(t, 1, "sync@cold/001=err")
	if err := s.Compact(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Compact under sync faults = %v", err)
	}
	fault.Install(nil)
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("sync-failed compaction left temp files: %v", tmps)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Get(fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("k%d unreadable after failed compaction: %v", i, err)
		}
	}
}

// TestOpenSweepsStaleTmp: a crash mid-compaction leaves *.log.tmp files;
// Open must remove them and replay only the real logs.
func TestOpenSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	stale := filepath.Join(dir, "000002.log.tmp")
	if err := os.WriteFile(stale, []byte("partial compaction output"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen with stale tmp: %v", err)
	}
	defer s2.Close()
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale tmp not swept: %v", err)
	}
	if v, err := s2.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("Get after sweep = %q, %v", v, err)
	}
}

// TestCompactPreservesCorruptRecords: compaction must copy a damaged
// record verbatim, not launder it into a freshly-checksummed valid one.
func TestCompactPreservesCorruptRecords(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("good", []byte("good-bytes")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bad", bytes.Repeat([]byte{7}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.DamageValue("bad"); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("bad"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get(bad) after compaction = %v, want ErrCorrupt (corruption was laundered)", err)
	}
	if v, err := s.Get("good"); err != nil || string(v) != "good-bytes" {
		t.Fatalf("Get(good) after compaction = %q, %v", v, err)
	}
}

// --- write-path faults -------------------------------------------------

func TestTornWriteThenReopenLosesOnlyTornRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FaultScope: "fast/000"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	// Tear exactly the next write. The Put fails, and the on-disk image
	// now carries a partial record past the committed tail — what a
	// crash mid-write leaves.
	in := faults(t, 5, "write@:torn-me=torn")
	if err := s.Put("torn-me", bytes.Repeat([]byte{0xEE}, 200)); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn Put = %v", err)
	}
	if in.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", in.Injected())
	}
	fault.Install(nil)

	// In-process: the store never indexed the torn record, and the next
	// append overwrites the torn bytes.
	if _, err := s.Get("torn-me"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("torn key visible in-process: %v", err)
	}
	// Abandon without Close — simulating the crash — and reopen.
	s.closeAll()
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer s2.Close()
	if s2.Len() != 8 {
		t.Fatalf("after reopen: %d keys, want 8", s2.Len())
	}
	for i := 0; i < 8; i++ {
		if v, err := s2.Get(fmt.Sprintf("k%d", i)); err != nil || len(v) != 50 {
			t.Fatalf("k%d after reopen: %v", i, err)
		}
	}
	// And the store keeps working.
	if err := s2.Put("post", []byte("ok")); err != nil {
		t.Fatal(err)
	}
}

func TestWriteErrDoesNotAdvanceState(t *testing.T) {
	s := openTemp(t, Options{FaultScope: "fast/000"})
	if err := s.Put("a", []byte("one")); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	faults(t, 2, "write@fast/000=err")
	if err := s.Put("b", []byte("two")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Put under write fault = %v", err)
	}
	fault.Install(nil)
	after := s.Stats()
	if after.Keys != before.Keys || after.LiveBytes != before.LiveBytes {
		t.Fatalf("failed write advanced state: %+v -> %+v", before, after)
	}
	if err := s.Put("b", []byte("two")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get("b"); err != nil || string(v) != "two" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
}

func TestSyncFaultSurfaces(t *testing.T) {
	s := openTemp(t, Options{FaultScope: "fast/000"})
	faults(t, 3, "sync=err")
	if err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync under sync fault = %v", err)
	}
	fault.Install(nil)
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync after faults cleared: %v", err)
	}
}

// TestReadFaultScopeTargetsOneStore: the composite "<scope>:<key>" site
// lets a rule take down one shard's reads while another store with a
// different scope is untouched — the basis of the fast-outage drills.
func TestReadFaultScopeTargetsOneStore(t *testing.T) {
	fastS, err := Open(t.TempDir(), Options{FaultScope: "fast/000"})
	if err != nil {
		t.Fatal(err)
	}
	defer fastS.Close()
	coldS, err := Open(t.TempDir(), Options{FaultScope: "cold/000"})
	if err != nil {
		t.Fatal(err)
	}
	defer coldS.Close()
	for _, s := range []*Store{fastS, coldS} {
		if err := s.Put("seg/cam/sf0/00000000", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	faults(t, 4, "read@fast/=err")
	if _, err := fastS.Get("seg/cam/sf0/00000000"); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("fast read = %v, want injected error", err)
	}
	if v, err := coldS.Get("seg/cam/sf0/00000000"); err != nil || string(v) != "payload" {
		t.Fatalf("cold read = %q, %v", v, err)
	}
}

// TestFlipFaultCaughtByCRC closes the loop: an injected bit flip on the
// read path is detected by Get's checksum verification as ErrCorrupt.
func TestFlipFaultCaughtByCRC(t *testing.T) {
	s := openTemp(t, Options{FaultScope: "fast/000"})
	if err := s.Put("k", bytes.Repeat([]byte{5}, 256)); err != nil {
		t.Fatal(err)
	}
	faults(t, 6, "read=flip")
	if _, err := s.Get("k"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get with flipped read = %v, want ErrCorrupt", err)
	}
	fault.Install(nil)
	// The flip was in-memory only: the record on disk is intact.
	if v, err := s.Get("k"); err != nil || len(v) != 256 {
		t.Fatalf("Get after faults cleared = %v", err)
	}
	if s.Stats().CorruptReads == 0 {
		t.Fatal("flip not counted as corrupt read")
	}
}

// sanity check on the record layout constants this file's offset math
// depends on.
func TestRecordLayout(t *testing.T) {
	buf := make([]byte, recHeaderSize+1+2)
	binary.BigEndian.PutUint32(buf[4:], 1)
	binary.BigEndian.PutUint32(buf[8:], 2)
	copy(buf[recHeaderSize:], "k")
	copy(buf[recHeaderSize+1:], "vv")
	binary.BigEndian.PutUint32(buf[0:], crc32.ChecksumIEEE(buf[4:]))
	if crc32.ChecksumIEEE(buf[4:]) != binary.BigEndian.Uint32(buf[0:]) {
		t.Fatal("layout sanity check failed")
	}
}

// TestTransientReadRecovers: a CRC failure observed on the read path but
// not on the medium (an injected flip models controller or bus
// corruption) clears on the automatic re-read, so Get serves the correct
// bytes instead of failing — and the recovery is counted separately from
// persistent corruption. Rate 0.5 means roughly half the first reads
// flip and a quarter fail both reads; the seed makes the schedule
// reproducible.
func TestTransientReadRecovers(t *testing.T) {
	s := openTemp(t, Options{})
	want := bytes.Repeat([]byte{0xCD}, 256)
	if err := s.Put("seg", want); err != nil {
		t.Fatal(err)
	}
	faults(t, 42, "read=flip:0.5")
	var served, corrupt int
	for i := 0; i < 64; i++ {
		v, err := s.Get("seg")
		switch {
		case err == nil:
			served++
			if !bytes.Equal(v, want) {
				t.Fatalf("Get %d served wrong bytes under read-path flips", i)
			}
		case errors.Is(err, ErrCorrupt):
			corrupt++ // flipped on the read AND the re-read
		default:
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.TransientReads == 0 {
		t.Fatalf("no transient recovery in 64 reads at rate 0.5 (served %d, corrupt %d)", served, corrupt)
	}
	if int(st.CorruptReads) != corrupt {
		t.Fatalf("CorruptReads = %d, want %d (only double failures count)", st.CorruptReads, corrupt)
	}
	if served == 0 {
		t.Fatal("every read failed; the re-read never recovered anything")
	}
}

// TestPersistentDamageSurvivesReread: the re-read must not mask real
// media damage — a bit flipped on disk fails the checksum on every read.
func TestPersistentDamageSurvivesReread(t *testing.T) {
	s := openTemp(t, Options{})
	if err := s.Put("seg", bytes.Repeat([]byte{0xEF}, 256)); err != nil {
		t.Fatal(err)
	}
	if err := s.DamageValue("seg"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Get("seg"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Get %d = %v, want ErrCorrupt", i, err)
		}
	}
	st := s.Stats()
	if st.CorruptReads != 3 || st.TransientReads != 0 {
		t.Fatalf("CorruptReads=%d TransientReads=%d, want 3 and 0", st.CorruptReads, st.TransientReads)
	}
}

// TestGetReturnsOwnedBuffer pins the ownership rule the raw read path
// relies on: Get's result is the caller's — the store keeps no reference to
// it and never hands the same memory out again — so overwriting it changes
// neither a later Get nor the log. The second half repeats it with read
// flips armed, where the value returned is the re-read's buffer.
func TestGetReturnsOwnedBuffer(t *testing.T) {
	s := openTemp(t, Options{})
	want := make([]byte, 4096)
	for i := range want {
		want[i] = byte(i * 31)
	}
	if err := s.Put("raw/cam/sf/00000000/00000007", want); err != nil {
		t.Fatal(err)
	}
	scribbleAndReread := func(round string) (served int) {
		for i := 0; i < 40; i++ {
			v, err := s.Get("raw/cam/sf/00000000/00000007")
			if errors.Is(err, ErrCorrupt) && fault.Enabled() {
				continue // both reads of this Get drew a flip
			}
			if err != nil {
				t.Fatalf("%s: Get %d: %v", round, i, err)
			}
			if !bytes.Equal(v, want) {
				t.Fatalf("%s: Get %d returned bytes an earlier caller overwrote", round, i)
			}
			for j := range v {
				v[j] ^= 0xFF
			}
			served++
		}
		return served
	}
	scribbleAndReread("no faults")

	faults(t, 3, "read=flip:0.4")
	if served := scribbleAndReread("flips armed"); served == 0 {
		t.Fatal("no Get survived the flips; lower the rate")
	}
	if s.Stats().TransientReads == 0 {
		t.Fatal("no Get was served from its re-read; the flip rule proved nothing")
	}
	fault.Install(nil)
	if bad, err := s.VerifyAll(); err != nil || len(bad) != 0 {
		t.Fatalf("log damaged by writes to returned values: %v %v", bad, err)
	}
}

// TestGetIntoLentBuffer is the lending half of the ownership rule: a caller
// that passes the same buffer again reads every record into one allocation,
// through a transient flip (re-read once, into that buffer), a persistent
// one (ErrCorrupt, counted once, the buffer still the caller's) and back;
// and a value the caller took out of the loan is not overwritten.
func TestGetIntoLentBuffer(t *testing.T) {
	s := openTemp(t, Options{})
	key := func(i int) string { return fmt.Sprintf("raw/cam/sf/00000000/%08d", i) }
	want := make([][]byte, 8)
	for i := range want {
		want[i] = bytes.Repeat([]byte{byte(0x10 + i), byte(i)}, 2048)
		if err := s.Put(key(i), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var buf []byte
	if _, err := s.GetInto(key(0), &buf); err != nil {
		t.Fatal(err)
	}
	lent := &buf[0]
	read := func(i int) ([]byte, error) {
		t.Helper()
		v, err := s.GetInto(key(i), &buf)
		if &buf[0] != lent {
			t.Fatalf("read %d left the lent buffer for another", i)
		}
		if err == nil && (!bytes.Equal(v, want[i]) || &v[0] != &buf[recHeaderSize+len(key(i))]) {
			t.Fatalf("read %d: value wrong, or not in the lent buffer", i)
		}
		return v, err
	}
	for i := range want {
		if _, err := read(i); err != nil {
			t.Fatal(err)
		}
	}

	faults(t, 42, "read=flip:0.5")
	corrupt := int64(0)
	for i := 0; s.Stats().TransientReads == 0; i++ {
		if i == 64 {
			t.Fatal("no read was served from its re-read in 64 tries at rate 0.5")
		}
		if _, err := read(i % len(want)); errors.Is(err, ErrCorrupt) {
			corrupt++ // flipped on the read and the re-read
		} else if err != nil {
			t.Fatal(err)
		}
	}
	fault.Install(nil)
	if st := s.Stats(); st.TransientReads != 1 || st.CorruptReads != corrupt {
		t.Fatalf("TransientReads=%d CorruptReads=%d, want 1 and %d", st.TransientReads, st.CorruptReads, corrupt)
	}

	if err := s.DamageValue(key(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := read(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("damaged record read as %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.TransientReads != 1 || st.CorruptReads != corrupt+1 {
		t.Fatalf("TransientReads=%d CorruptReads=%d after one persistent failure, want 1 and %d", st.TransientReads, st.CorruptReads, corrupt+1)
	}
	kept, err := read(4)
	if err != nil {
		t.Fatal(err)
	}
	buf = nil // keep the value: the next read must find its own buffer
	if v, err := s.GetInto(key(5), &buf); err != nil || !bytes.Equal(v, want[5]) {
		t.Fatalf("read after keeping a value: %v", err)
	}
	if !bytes.Equal(kept, want[4]) {
		t.Fatal("a kept value was overwritten by the next read")
	}
}
