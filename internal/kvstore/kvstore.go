// Package kvstore is an embedded key-value store, the reproduction's
// substitute for LMDB as VStore's storage backend. It is log-structured:
// records are appended to numbered log files with CRC-32 framing, an
// in-memory index maps each live key to its latest record, deletions write
// tombstones, and explicit compaction rewrites live data to reclaim space.
// Values of several megabytes (one 8-second video segment) are the design
// point, matching the paper's reason for choosing LMDB.
package kvstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

const (
	recHeaderSize  = 4 + 4 + 4 // crc, keyLen, valLen
	tombstoneVLen  = ^uint32(0)
	logSuffix      = ".log"
	tmpSuffix      = ".tmp"   // compaction staging files: <id>.log.tmp
	defaultMaxFile = 64 << 20 // rotate active log at 64 MiB
	maxKeyLen      = 1 << 16
	maxValLen      = 1 << 30
)

// ErrNotFound is returned by Get for missing keys.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrCorrupt is returned by Get and Scan when a record's stored checksum
// no longer matches its bytes — post-write damage (bit rot, a bad
// sector, a torn overwrite), as opposed to a key that was never written
// or was deleted (ErrNotFound). Callers distinguish the two because the
// remedies differ: a corrupt replica can be re-derived from a richer
// surviving format, a missing one was removed on purpose.
var ErrCorrupt = errors.New("kvstore: corrupt record")

// Options configures a store.
type Options struct {
	// MaxFileBytes rotates the active log once it exceeds this size.
	// Zero selects the default (64 MiB).
	MaxFileBytes int64
	// FaultScope names this store in fault-injection sites (e.g.
	// "fast/000" for a tier shard): hooks see "<scope>:<key>" for reads
	// and writes and "<scope>" for syncs and compactions. Empty is fine —
	// injection then matches on the key part alone.
	FaultScope string
}

type recordLoc struct {
	file   uint32
	valOff int64 // offset of the value bytes within the file
	valLen uint32
}

// Store is a log-structured key-value store. All methods are safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	dir     string
	opts    Options
	index   map[string]recordLoc
	files   map[uint32]*os.File
	active  uint32
	actSize int64
	garbage int64 // bytes of superseded records
	live    int64 // bytes of live values
	closed  bool

	corruptReads   atomic.Uint64 // reads whose CRC failure survived a re-read
	transientReads atomic.Uint64 // CRC failures that cleared on re-read
}

// Open opens (creating if necessary) a store in dir and replays its logs to
// rebuild the index. A torn record at the tail of the newest log — the
// signature of a crash mid-write — is truncated away. A record whose
// frame is intact but whose checksum no longer matches (post-write
// damage) is indexed anyway: reading it returns ErrCorrupt, so the
// repair layer can re-derive it — damage survives a restart instead of
// making the store unopenable. Corruption that destroys record framing
// in an older log is still reported as an error. Stale compaction
// staging files (*.log.tmp) left by a crash mid-compaction are removed.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxFileBytes <= 0 {
		opts.MaxFileBytes = defaultMaxFile
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*"+logSuffix+tmpSuffix))
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	for _, t := range tmps {
		if err := os.Remove(t); err != nil {
			return nil, fmt.Errorf("kvstore: removing stale %s: %w", t, err)
		}
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		index: make(map[string]recordLoc),
		files: make(map[uint32]*os.File),
	}
	ids, err := listLogs(dir)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		f, err := os.OpenFile(s.logPath(id), os.O_RDWR, 0)
		if err != nil {
			return nil, fmt.Errorf("kvstore: %w", err)
		}
		s.files[id] = f
		lastFile := i == len(ids)-1
		size, err := s.replay(id, f, lastFile)
		if err != nil {
			s.closeAll()
			return nil, err
		}
		if lastFile {
			s.active = id
			s.actSize = size
		}
	}
	if len(ids) == 0 {
		if err := s.rotateLocked(1); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) logPath(id uint32) string {
	return filepath.Join(s.dir, fmt.Sprintf("%06d%s", id, logSuffix))
}

func listLogs(dir string) ([]uint32, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kvstore: %w", err)
	}
	var ids []uint32
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, logSuffix) {
			continue
		}
		var id uint32
		if _, err := fmt.Sscanf(name, "%06d", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

// replay scans one log, updating the index. For the newest log a torn tail
// is truncated; for older logs it is corruption. A record whose header claims
// more bytes than the file holds past it is torn too, and is found so before
// its body is allocated: a damaged length field costs nothing.
func (s *Store) replay(id uint32, f *os.File, tolerateTail bool) (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("kvstore: replay %s: %w", s.logPath(id), err)
	}
	var off int64
	var hdr [recHeaderSize]byte
	for {
		_, err := f.ReadAt(hdr[:], off)
		if err == io.EOF {
			return off, nil
		}
		if err == io.ErrUnexpectedEOF {
			return s.tornTail(id, f, off, tolerateTail)
		}
		if err != nil {
			return 0, fmt.Errorf("kvstore: replay %s: %w", s.logPath(id), err)
		}
		wantCRC := binary.BigEndian.Uint32(hdr[0:])
		kl := binary.BigEndian.Uint32(hdr[4:])
		vl := binary.BigEndian.Uint32(hdr[8:])
		vlen := vl
		if vl == tombstoneVLen {
			vlen = 0
		}
		if kl > maxKeyLen || vlen > maxValLen || off+recHeaderSize+int64(kl)+int64(vlen) > fi.Size() {
			return s.tornTail(id, f, off, tolerateTail)
		}
		body := make([]byte, int(kl)+int(vlen))
		if _, err := f.ReadAt(body, off+recHeaderSize); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return s.tornTail(id, f, off, tolerateTail)
			}
			return 0, fmt.Errorf("kvstore: replay %s: %w", s.logPath(id), err)
		}
		if crc32.ChecksumIEEE(append(hdr[4:recHeaderSize:recHeaderSize], body...)) != wantCRC {
			if vl == tombstoneVLen {
				// A corrupt tombstone neither deletes nor stores: applying
				// a delete whose key bytes cannot be trusted could drop the
				// wrong key. Skip the record and keep replaying.
				off += recHeaderSize + int64(kl)
				continue
			}
			// The frame is intact (the full body was readable at plausible
			// lengths) but the bytes are damaged — bit rot, not a torn
			// tail. Fall through and index it: Get fails its own CRC check
			// with ErrCorrupt and the repair layer re-derives the replica.
		}
		key := string(body[:kl])
		if old, ok := s.index[key]; ok {
			s.garbage += int64(recHeaderSize + len(key))
			s.garbage += int64(old.valLen)
			s.live -= int64(old.valLen)
		}
		if vl == tombstoneVLen {
			delete(s.index, key)
			s.garbage += recHeaderSize + int64(kl)
		} else {
			s.index[key] = recordLoc{file: id, valOff: off + recHeaderSize + int64(kl), valLen: vl}
			s.live += int64(vl)
		}
		off += recHeaderSize + int64(kl) + int64(vlen)
	}
}

func (s *Store) tornTail(id uint32, f *os.File, off int64, tolerate bool) (int64, error) {
	if !tolerate {
		return 0, fmt.Errorf("kvstore: %s corrupt at offset %d", s.logPath(id), off)
	}
	if err := f.Truncate(off); err != nil {
		return 0, fmt.Errorf("kvstore: truncating torn tail of %s: %w", s.logPath(id), err)
	}
	return off, nil
}

// rotateLocked opens a fresh active log with the given id. Caller holds mu
// (or is the constructor).
func (s *Store) rotateLocked(id uint32) error {
	f, err := os.OpenFile(s.logPath(id), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("kvstore: %w", err)
	}
	s.files[id] = f
	s.active = id
	s.actSize = 0
	return nil
}

// Put stores value under key, replacing any existing value.
func (s *Store) Put(key string, value []byte) error {
	if len(key) == 0 || len(key) > maxKeyLen {
		return fmt.Errorf("kvstore: invalid key length %d", len(key))
	}
	if len(value) > maxValLen {
		return fmt.Errorf("kvstore: value too large (%d bytes)", len(value))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appendLocked(key, value, false)
}

// Delete removes key. Deleting a missing key is a no-op.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; !ok {
		return nil
	}
	return s.appendLocked(key, nil, true)
}

func (s *Store) appendLocked(key string, value []byte, tombstone bool) error {
	if s.closed {
		return errors.New("kvstore: store is closed")
	}
	if s.actSize >= s.opts.MaxFileBytes {
		if err := s.rotateLocked(s.active + 1); err != nil {
			return err
		}
	}
	f := s.files[s.active]
	buf := make([]byte, recHeaderSize+len(key)+len(value))
	binary.BigEndian.PutUint32(buf[4:], uint32(len(key)))
	if tombstone {
		binary.BigEndian.PutUint32(buf[8:], tombstoneVLen)
	} else {
		binary.BigEndian.PutUint32(buf[8:], uint32(len(value)))
	}
	copy(buf[recHeaderSize:], key)
	copy(buf[recHeaderSize+len(key):], value)
	binary.BigEndian.PutUint32(buf[0:], crc32.ChecksumIEEE(buf[4:]))
	off := s.actSize
	if n, ferr := fault.OnWrite(s.opts.FaultScope, key, len(buf)); ferr != nil {
		if n > 0 {
			// A torn write: the prefix a crash mid-write would leave on
			// disk. actSize does not advance, so the next append
			// overwrites it in-process; after a real crash, replay's
			// torn-tail truncation removes it.
			f.WriteAt(buf[:n], off)
		}
		return fmt.Errorf("kvstore: append: %w", ferr)
	}
	if _, err := f.WriteAt(buf, off); err != nil {
		return fmt.Errorf("kvstore: append: %w", err)
	}
	s.actSize += int64(len(buf))
	if old, ok := s.index[key]; ok {
		s.garbage += recHeaderSize + int64(len(key)) + int64(old.valLen)
		s.live -= int64(old.valLen)
	}
	if tombstone {
		delete(s.index, key)
		s.garbage += int64(recHeaderSize + len(key))
	} else {
		s.index[key] = recordLoc{file: s.active, valOff: off + recHeaderSize + int64(len(key)), valLen: uint32(len(value))}
		s.live += int64(len(value))
	}
	return nil
}

// Sync fsyncs every log file, making all records appended so far
// durable (a recent append may live in a just-rotated log, so the
// active file alone is not enough). Callers that need an ordering
// barrier between writes to different stores (e.g. tier demotion's
// copy-before-delete) sync the written store before mutating the other.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvstore: store is closed")
	}
	if err := fault.OnSync(s.opts.FaultScope); err != nil {
		return fmt.Errorf("kvstore: sync: %w", err)
	}
	for _, f := range s.files {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("kvstore: sync: %w", err)
		}
	}
	return nil
}

// readRecordVerified reads key's full record (header, key, value) into
// *buf, grown first when it is too small, and reports whether its stored
// checksum verifies — re-reading once, into the same buffer, when it does
// not: a CRC mismatch observed on one read is not always on the medium —
// corruption picked up on the read path itself (controller, bus, an
// injected flip) clears on retry, while true bit rot fails again. Only
// damage that survives the re-read is reported as corrupt; a recovered read
// counts toward TransientReads. I/O errors are not retried — an error is the
// device refusing the read, not the data arriving wrong. Caller holds mu.
func (s *Store) readRecordVerified(key string, loc recordLoc, buf *[]byte) (rec []byte, ok bool, err error) {
	recOff := loc.valOff - int64(len(key)) - recHeaderSize
	n := recHeaderSize + len(key) + int(loc.valLen)
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	rec = (*buf)[:n]
	for reread := false; ; reread = true {
		if _, err := s.files[loc.file].ReadAt(rec, recOff); err != nil {
			return nil, false, fmt.Errorf("kvstore: read %q: %w", key, err)
		}
		if err := fault.OnRead(s.opts.FaultScope, key, rec); err != nil {
			return nil, false, fmt.Errorf("kvstore: read %q: %w", key, err)
		}
		ok = crc32.ChecksumIEEE(rec[4:]) == binary.BigEndian.Uint32(rec[0:])
		if ok && reread {
			s.transientReads.Add(1)
		}
		if ok || reread {
			return rec, ok, nil
		}
	}
}

// Get is GetInto with nothing lent: the value is in a buffer allocated for
// this call, which the caller owns and may write to.
func (s *Store) Get(key string) ([]byte, error) { return s.GetInto(key, new([]byte)) }

// GetInto is the one read: the value stored under key, or ErrNotFound. The
// whole record is re-read and its checksum verified on every call, so damage
// that landed after the original write (bit rot, a bad sector) surfaces as
// ErrCorrupt instead of being served silently into a query.
//
// The record is read into *buf, replaced first by a larger buffer when it is
// too small, so a caller that passes the same buf again reads every record
// into one allocation. The value aliases *buf until the caller's next read
// into it, or for good once the caller sets *buf to nil (the raw read path's
// keeping visitor delivers frames that alias it); the store keeps no
// reference. After an error *buf is still the caller's, contents unspecified.
func (s *Store) GetInto(key string, buf *[]byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("kvstore: store is closed")
	}
	loc, ok := s.index[key]
	if !ok {
		return nil, ErrNotFound
	}
	rec, ok, err := s.readRecordVerified(key, loc, buf)
	if err != nil {
		return nil, err
	}
	if !ok {
		s.corruptReads.Add(1)
		return nil, fmt.Errorf("kvstore: read %q: %w", key, ErrCorrupt)
	}
	return rec[recHeaderSize+len(key):], nil
}

// Has reports whether key is present.
func (s *Store) Has(key string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.index[key]
	return ok
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Keys returns all live keys with the given prefix in sorted order.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	var out []string // sized by the matches, not by the index
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Scan calls fn for every live key with the given prefix, in sorted key
// order, with the stored value. Scanning stops early if fn returns false.
func (s *Store) Scan(prefix string, fn func(key string, value []byte) bool) error {
	for _, k := range s.Keys(prefix) {
		v, err := s.Get(k)
		if err == ErrNotFound {
			continue // deleted between listing and read
		}
		if err != nil {
			return err
		}
		if !fn(k, v) {
			return nil
		}
	}
	return nil
}

// Stats reports one store's occupancy and the corruption its reads met.
type Stats struct {
	Keys         int
	LiveBytes    int64 // bytes of live values
	GarbageBytes int64 // bytes of superseded or deleted records
	Files        int

	CorruptReads   int64 // reads whose CRC failure survived a re-read
	TransientReads int64 // CRC failures that cleared on re-read (read-path corruption)
}

// Stats returns current occupancy counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Keys:           len(s.index),
		LiveBytes:      s.live,
		GarbageBytes:   s.garbage,
		Files:          len(s.files),
		CorruptReads:   int64(s.corruptReads.Load()),
		TransientReads: int64(s.transientReads.Load()),
	}
}

// Compact rewrites all live records into fresh logs and removes the old
// ones, reclaiming garbage space. The store is locked for the duration.
//
// New logs are staged as *.log.tmp, fsynced, and only then renamed into
// place and swapped in — a failure at any point removes the staged files
// and leaves the original state untouched, and a crash mid-compaction
// leaves only stale *.log.tmp files that Open sweeps away. Records are
// copied verbatim (original header and CRC included): re-framing a
// damaged value with a fresh checksum would launder corruption into a
// silently valid record, so a corrupt record stays corrupt — and
// detectable — across compactions until the repair layer re-derives it.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvstore: store is closed")
	}
	if err := fault.OnCompact(s.opts.FaultScope); err != nil {
		return fmt.Errorf("kvstore: compact: %w", err)
	}
	type stagedLog struct {
		id      uint32
		f       *os.File
		size    int64
		renamed bool
	}
	var staged []stagedLog
	fail := func(err error) error {
		for i := range staged {
			st := &staged[i]
			st.f.Close()
			path := s.logPath(st.id) + tmpSuffix
			if st.renamed {
				path = s.logPath(st.id)
			}
			os.Remove(path)
		}
		return err
	}
	open := func(id uint32) error {
		f, err := os.OpenFile(s.logPath(id)+tmpSuffix, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("kvstore: compact: %w", err)
		}
		staged = append(staged, stagedLog{id: id, f: f})
		return nil
	}
	if err := open(s.active + 1); err != nil {
		return fail(err)
	}
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	newIndex := make(map[string]recordLoc, len(keys))
	var newLive int64
	var buf []byte // every record is written out before the next is read
	for _, k := range keys {
		loc := s.index[k]
		rec, ok, err := s.readRecordVerified(k, loc, &buf)
		if err != nil {
			return fail(fmt.Errorf("kvstore: compact: %w", err))
		}
		if !ok {
			// The damage is on the medium; the record is carried into the
			// new log as-is so the scrubber can still find and repair it.
			s.corruptReads.Add(1)
		}
		cur := &staged[len(staged)-1]
		if cur.size >= s.opts.MaxFileBytes {
			if err := open(cur.id + 1); err != nil {
				return fail(err)
			}
			cur = &staged[len(staged)-1]
		}
		if n, ferr := fault.OnWrite(s.opts.FaultScope, k, len(rec)); ferr != nil {
			if n > 0 {
				cur.f.WriteAt(rec[:n], cur.size)
			}
			return fail(fmt.Errorf("kvstore: compact: %w", ferr))
		}
		if _, err := cur.f.WriteAt(rec, cur.size); err != nil {
			return fail(fmt.Errorf("kvstore: compact write %q: %w", k, err))
		}
		newIndex[k] = recordLoc{file: cur.id, valOff: cur.size + recHeaderSize + int64(len(k)), valLen: loc.valLen}
		newLive += int64(loc.valLen)
		cur.size += int64(len(rec))
	}
	for i := range staged {
		if err := fault.OnSync(s.opts.FaultScope); err != nil {
			return fail(fmt.Errorf("kvstore: compact: %w", err))
		}
		if err := staged[i].f.Sync(); err != nil {
			return fail(fmt.Errorf("kvstore: compact sync: %w", err))
		}
	}
	for i := range staged {
		st := &staged[i]
		if err := os.Rename(s.logPath(st.id)+tmpSuffix, s.logPath(st.id)); err != nil {
			return fail(fmt.Errorf("kvstore: compact rename: %w", err))
		}
		st.renamed = true
	}
	// Commit: swap in the compacted state, then drop the old logs. A
	// crash between the renames and the removals is safe — the new logs
	// carry the same live records under higher IDs, so replaying old
	// then new converges on this exact state.
	oldFiles := s.files
	s.files = make(map[uint32]*os.File, len(staged))
	for _, st := range staged {
		s.files[st.id] = st.f
	}
	s.index = newIndex
	s.active = staged[len(staged)-1].id
	s.actSize = staged[len(staged)-1].size
	s.live = newLive
	s.garbage = 0
	for _, f := range oldFiles {
		name := f.Name()
		f.Close()
		os.Remove(name)
	}
	return nil
}

// VerifyAll re-reads every live record and verifies its stored checksum,
// returning the sorted keys that are damaged or unreadable. It is the
// scrubber's primitive: an empty slice with a nil error means every
// record in the store is intact. Detections here do not count toward
// CorruptReads, which tracks the serving read path only.
func (s *Store) VerifyAll() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, errors.New("kvstore: store is closed")
	}
	var bad []string
	var buf []byte
	for k, loc := range s.index {
		if _, ok, err := s.readRecordVerified(k, loc, &buf); err != nil || !ok {
			bad = append(bad, k)
		}
	}
	sort.Strings(bad)
	return bad, nil
}

// DamageValue flips one bit of key's record on disk while leaving the
// in-memory index untouched, so the next Get returns ErrCorrupt. It
// simulates post-write bit rot for tests and operational drills
// (`vstore damage`); it is deliberately not part of the serving API.
func (s *Store) DamageValue(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("kvstore: store is closed")
	}
	loc, ok := s.index[key]
	if !ok {
		return ErrNotFound
	}
	off := loc.valOff
	if loc.valLen == 0 {
		off-- // no value bytes: flip a bit of the key instead
	}
	f := s.files[loc.file]
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return fmt.Errorf("kvstore: damage %q: %w", key, err)
	}
	b[0] ^= 0x80
	if _, err := f.WriteAt(b[:], off); err != nil {
		return fmt.Errorf("kvstore: damage %q: %w", key, err)
	}
	return nil
}

// Close releases all file handles. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.closeAll()
	return nil
}

func (s *Store) closeAll() {
	for _, f := range s.files {
		f.Close()
	}
	s.files = nil
}
