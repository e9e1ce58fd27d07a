// Package segment layers VStore's on-disk video organisation over the
// key-value store: footage is split into fixed-length segments (8-second
// clips, §4.1) that are stored, retrieved and deleted independently — the
// independence that age-based data erosion relies on.
//
// Encoded segments are one KV record each (the codec container). Raw
// (coding-bypass) segments are stored one record per frame, so a sparse
// consumer can read exactly the sampled frames from disk — the property the
// paper notes for SF3 in Table 3 ("RAW frames can be sampled individually
// from disk").
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/kvstore"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// Seconds is the duration of one segment.
const Seconds = 8

// Frames is the number of native-rate frames per segment.
const Frames = Seconds * vidsim.FPS

// ErrNotFound is returned when a requested segment does not exist.
var ErrNotFound = errors.New("segment: not found")

// ErrCorrupt is returned when a segment's stored bytes are damaged: a
// record failed its stored checksum (kvstore.ErrCorrupt, with no intact
// replica in any tier), or the bytes read back but no longer parse as
// the container they were written as. Distinct from ErrNotFound so the
// repair layer knows the replica needs re-derivation, not re-ingest.
var ErrCorrupt = errors.New("segment: corrupt")

// asSegmentErr maps storage-layer read failures onto the segment
// store's typed errors.
func asSegmentErr(err error) error {
	if errors.Is(err, kvstore.ErrNotFound) {
		return ErrNotFound
	}
	if errors.Is(err, kvstore.ErrCorrupt) {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return err
}

// KV is the key-value surface the segment store needs. A bare
// *kvstore.Store satisfies it (one log, one lock); a *tier.Store
// satisfies it with sharded fast/cold tiers behind tier-transparent
// reads.
type KV interface {
	Put(key string, value []byte) error
	// Get returns a buffer the caller owns: the store never retains or
	// reuses it.
	Get(key string) ([]byte, error)
	// GetInto reads into a buffer the caller lends (an empty one is Get): the
	// value aliases *buf, replaced when too small, until the caller's next
	// read into it, or for good once the caller sets *buf to nil. The raw
	// read path borrows one record buffer per segment this way, and keeps
	// the ones whose planes it delivers (unmarshalFrame aliases its input).
	GetInto(key string, buf *[]byte) ([]byte, error)
	Has(key string) bool
	Delete(key string) error
	Keys(prefix string) []string
	Scan(prefix string, fn func(key string, value []byte) bool) error
	Close() error
}

// PlaceFunc maps a storage format key to its disk tier — the segment
// store consults it on every write so derivation-driven placement lands
// each format's records on the right medium.
type PlaceFunc func(sfKey string) tier.ID

// Store organises segments inside a key-value store.
type Store struct {
	kv KV
	ts *tier.Store // non-nil when kv is tiered: enables placement and demotion

	mu    sync.RWMutex
	place PlaceFunc
}

// NewStore wraps a key-value store.
func NewStore(kv KV) *Store {
	s := &Store{kv: kv}
	if ts, ok := kv.(*tier.Store); ok {
		s.ts = ts
	}
	return s
}

// KV exposes the underlying key-value store (for stats and compaction).
func (s *Store) KV() KV { return s.kv }

// SetPlacement installs the write-time tier placement. Safe to call
// while ingest runs: in-flight segments pick up the new placement on
// their next replica write. A nil PlaceFunc (or an untiered store) writes
// everything to the fast tier.
func (s *Store) SetPlacement(place PlaceFunc) {
	s.mu.Lock()
	s.place = place
	s.mu.Unlock()
}

// writer returns the record writer for one replica stored under sfKey:
// onto the tier *at when given — how repair lands a rebuilt replica back on
// the tier the manifest records for it, even if the live placement plan has
// moved on — else onto the tier the write-time placement assigns the format.
func (s *Store) writer(sfKey string, at *tier.ID) func(key string, value []byte) error {
	if s.ts == nil {
		return s.kv.Put
	}
	if at == nil {
		s.mu.RLock()
		place := s.place
		s.mu.RUnlock()
		if place == nil {
			return s.kv.Put
		}
		t := place(sfKey)
		at = &t
	}
	return func(key string, value []byte) error { return s.ts.PutTier(*at, key, value) }
}

// Key layout, shared by the typed accessors below, DeleteRef (which only
// has the format's key) and the manifest's ScanRefs rebuild.
const (
	encPrefix     = "seg/"
	rawPrefix     = "raw/"
	rawMetaPrefix = "rawmeta/"
)

func encKeyOf(stream, sfKey string, idx int) string {
	return fmt.Sprintf("%s%s/%s/%08d", encPrefix, stream, sfKey, idx)
}

func rawMetaKeyOf(stream, sfKey string, idx int) string {
	return fmt.Sprintf("%s%s/%s/%08d", rawMetaPrefix, stream, sfKey, idx)
}

func rawFramePrefixOf(stream, sfKey string, idx int) string {
	return fmt.Sprintf("%s%s/%s/%08d/", rawPrefix, stream, sfKey, idx)
}

// PutEncoded stores an encoded segment through the write-time placement.
func (s *Store) PutEncoded(stream string, sf format.StorageFormat, idx int, enc *codec.Encoded) error {
	return s.PutEncodedRef(RefOf(stream, sf, idx), nil, enc)
}

// PutEncodedRef stores an encoded replica by manifest ref — the one encoded
// writer, behind ingest, adoption of a replica from a peer (both at == nil:
// placement decides the tier) and repair (an explicit tier, see writer).
func (s *Store) PutEncodedRef(r Ref, at *tier.ID, enc *codec.Encoded) error {
	if r.Raw {
		return errors.New("segment: encoded write to a raw replica; use PutRawRef")
	}
	return s.writer(r.SFKey, at)(encKeyOf(r.Stream, r.SFKey, r.Idx), enc.Marshal())
}

// GetEncoded loads an encoded segment.
func (s *Store) GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error) {
	return s.GetEncodedRef(RefOf(stream, sf, idx))
}

// GetEncodedRef loads an encoded replica by manifest ref — the form
// inter-node transfers use, where only the format KEY travels on the wire.
// Damaged bytes — a failed record checksum or an unparseable container —
// return ErrCorrupt.
func (s *Store) GetEncodedRef(r Ref) (*codec.Encoded, error) {
	b, err := s.kv.Get(encKeyOf(r.Stream, r.SFKey, r.Idx))
	if err != nil {
		return nil, asSegmentErr(err)
	}
	enc, err := codec.Unmarshal(b)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return enc, nil
}

// rawMeta is the fixed-size per-segment header for raw segments.
type rawMeta struct {
	w, h, n, firstPTS int
}

func (m rawMeta) marshal() []byte {
	var b [16]byte
	binary.BigEndian.PutUint32(b[0:], uint32(m.w))
	binary.BigEndian.PutUint32(b[4:], uint32(m.h))
	binary.BigEndian.PutUint32(b[8:], uint32(m.n))
	binary.BigEndian.PutUint32(b[12:], uint32(m.firstPTS))
	return b[:]
}

func unmarshalRawMeta(b []byte) (rawMeta, error) {
	if len(b) != 16 {
		return rawMeta{}, errors.New("segment: bad raw metadata")
	}
	return rawMeta{
		w:        int(binary.BigEndian.Uint32(b[0:])),
		h:        int(binary.BigEndian.Uint32(b[4:])),
		n:        int(binary.BigEndian.Uint32(b[8:])),
		firstPTS: int(binary.BigEndian.Uint32(b[12:])),
	}, nil
}

// appendFrame appends f's stored record: an 8-byte header (W, H, PTS) and
// the three planes.
func appendFrame(out []byte, f *frame.Frame) []byte {
	out = binary.BigEndian.AppendUint16(out, uint16(f.W))
	out = binary.BigEndian.AppendUint16(out, uint16(f.H))
	out = binary.BigEndian.AppendUint32(out, uint32(f.PTS))
	out = append(out, f.Y...)
	out = append(out, f.Cb...)
	return append(out, f.Cr...)
}

func marshalFrame(f *frame.Frame) []byte {
	return appendFrame(make([]byte, 0, 8+f.Bytes()), f)
}

// unmarshalFrame parses one stored record into a frame whose planes alias
// b: the record is not copied, so b must be the caller's to hand over.
func unmarshalFrame(b []byte) (frame.Frame, error) {
	if len(b) < 8 {
		return frame.Frame{}, errors.New("segment: truncated raw frame")
	}
	w := int(binary.BigEndian.Uint16(b[0:]))
	h := int(binary.BigEndian.Uint16(b[2:]))
	f, n := frame.Over(w, h, b[8:])
	if len(b) != 8+n {
		return frame.Frame{}, fmt.Errorf("segment: raw frame %d bytes, want %d", len(b), 8+n)
	}
	f.PTS = int(binary.BigEndian.Uint32(b[4:]))
	return f, nil
}

// PutRaw stores a raw segment through the write-time placement.
func (s *Store) PutRaw(stream string, sf format.StorageFormat, idx int, frames []*frame.Frame) error {
	return s.PutRawRef(RefOf(stream, sf, idx), nil, frames)
}

// PutRawRef stores a raw replica by manifest ref, one record per frame plus
// the metadata anchor — the one raw writer (see PutEncodedRef for at). The
// anchor goes LAST: it is what commits the replica (readers and the
// manifest rebuild at open both start from it), so a write interrupted at
// any record leaves no anchor promising frames that were never written.
func (s *Store) PutRawRef(r Ref, at *tier.ID, frames []*frame.Frame) error {
	if !r.Raw {
		return errors.New("segment: raw write to an encoded replica; use PutEncodedRef")
	}
	if len(frames) == 0 {
		return errors.New("segment: empty raw segment")
	}
	put := s.writer(r.SFKey, at)
	prefix := rawFramePrefixOf(r.Stream, r.SFKey, r.Idx)
	for _, f := range frames {
		if err := put(fmt.Sprintf("%s%08d", prefix, f.PTS), marshalFrame(f)); err != nil {
			return err
		}
	}
	meta := rawMeta{w: frames[0].W, h: frames[0].H, n: len(frames), firstPTS: frames[0].PTS}
	return put(rawMetaKeyOf(r.Stream, r.SFKey, r.Idx), meta.marshal())
}

// GetRaw loads the raw frames of a segment for which keep(pts) is true;
// keep == nil loads all.
func (s *Store) GetRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool) ([]*frame.Frame, int64, error) {
	return s.GetRawRef(RefOf(stream, sf, idx), keep)
}

// GetRawRef collects a raw replica's kept frames: the visitor that keeps
// every frame, so each one's planes alias a record buffer of its own.
func (s *Store) GetRawRef(r Ref, keep func(pts int) bool) ([]*frame.Frame, int64, error) {
	out := []*frame.Frame{}
	read, err := s.VisitRawRef(r, keep, func(n int, f *frame.Frame) bool {
		if len(out) == 0 {
			out = make([]*frame.Frame, 0, n)
		}
		out = append(out, f)
		return true
	})
	if err != nil {
		return nil, read, err
	}
	return out, read, nil
}

// RawVisitor receives the kept frames of one raw segment in PTS order; n is
// how many were listed (a frame eroded between listing and read is skipped,
// so fewer may arrive). f and the record buffer its planes alias are lent
// until the visitor returns, when the next frame's read overwrites both —
// unless it returns true, which makes them its own: f then stays valid, and
// may be written to.
type RawVisitor func(n int, f *frame.Frame) (keep bool)

// VisitRaw is VisitRawRef addressed by stream, format and index.
func (s *Store) VisitRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool, visit RawVisitor) (int64, error) {
	return s.VisitRawRef(RefOf(stream, sf, idx), keep, visit)
}

// VisitRawRef is the raw-segment reader, addressed by manifest ref. Only the
// frames for which keep(pts) is true (all, when keep is nil) are read from
// disk, each into a record buffer the next one reuses unless visit kept it,
// and the returned read-bytes count reflects the disk traffic incurred. The
// metadata anchor gates existence (no anchor means no committed replica);
// frames are found by listing the stored frame keys, in PTS order, not by
// assuming a contiguous run from the anchor: a temporally sampled storage
// format keeps its frames at their strided timeline positions.
func (s *Store) VisitRawRef(r Ref, keep func(pts int) bool, visit RawVisitor) (int64, error) {
	mb, err := s.kv.Get(rawMetaKeyOf(r.Stream, r.SFKey, r.Idx))
	if err != nil {
		return 0, asSegmentErr(err)
	}
	if _, err := unmarshalRawMeta(mb); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	prefix := rawFramePrefixOf(r.Stream, r.SFKey, r.Idx)
	keys := s.kv.Keys(prefix)
	kept := keys[:0]
	for _, key := range keys {
		pts, err := strconv.Atoi(key[len(prefix):])
		if err != nil {
			return 0, fmt.Errorf("%w: bad raw frame key %q", ErrCorrupt, key)
		}
		if keep == nil || keep(pts) {
			kept = append(kept, key)
		}
	}
	var read int64
	var buf []byte                 // the record buffer a visitor gave back, lent to the next read
	hdrs := make([]frame.Frame, 1) // headers to lend: one, until a visitor keeps it
	for i, key := range kept {
		// With nothing to lend (the first read, or the visitor kept the last
		// record) the read is a plain Get, whose value is the visitor's to keep.
		var b []byte
		if buf == nil {
			b, err = s.kv.Get(key)
		} else {
			b, err = s.kv.GetInto(key, &buf)
		}
		if errors.Is(err, kvstore.ErrNotFound) {
			continue // frame individually eroded between listing and read
		}
		if err != nil {
			return read, asSegmentErr(err)
		}
		read += int64(len(b))
		if len(hdrs) == 0 {
			hdrs = make([]frame.Frame, len(kept)-i) // one allocation for every header yet to keep
		}
		if hdrs[0], err = unmarshalFrame(b); err != nil {
			return read, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if visit(len(kept), &hdrs[0]) {
			buf, hdrs = nil, hdrs[1:]
		} else if buf == nil {
			buf = b // a value, not yet a record: the next read grows it once
		}
	}
	return read, nil
}

// MarshalRawSegment is the wire framing for shipping a raw segment between
// nodes (follower replication): a frame count followed by
// length-prefixed per-frame records in the store's own record encoding, so
// the receiver's per-frame byte accounting matches the sender's disk
// accounting exactly.
func MarshalRawSegment(frames []*frame.Frame) []byte {
	size := 4
	for _, f := range frames {
		size += 4 + 8 + f.Bytes()
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(frames)))
	for _, f := range frames {
		out = binary.BigEndian.AppendUint32(out, uint32(8+f.Bytes()))
		out = appendFrame(out, f)
	}
	return out
}

// UnmarshalRawSegment parses MarshalRawSegment's framing. The frames'
// planes alias b.
func UnmarshalRawSegment(b []byte) ([]*frame.Frame, error) {
	if len(b) < 4 {
		return nil, errors.New("segment: truncated raw segment wire header")
	}
	n := int(binary.BigEndian.Uint32(b))
	off := 4
	out := make([]*frame.Frame, 0, n)
	for i := 0; i < n; i++ {
		if off+4 > len(b) {
			return nil, errors.New("segment: truncated raw segment wire record")
		}
		l := int(binary.BigEndian.Uint32(b[off:]))
		off += 4
		if off+l > len(b) {
			return nil, errors.New("segment: truncated raw segment wire record")
		}
		f, err := unmarshalFrame(b[off : off+l])
		if err != nil {
			return nil, err
		}
		out = append(out, &f)
		off += l
	}
	if off != len(b) {
		return nil, errors.New("segment: trailing bytes after raw segment records")
	}
	return out, nil
}

// Has reports whether the segment exists (encoded or raw).
func (s *Store) Has(stream string, sf format.StorageFormat, idx int) bool {
	return s.kv.Has(anchorKey(RefOf(stream, sf, idx)))
}

// Visible reports whether the segment may be read. On a bare store it is
// simply physical presence; a snapshot View (see manifest.go) restricts it
// to the snapshot's committed set.
func (s *Store) Visible(stream string, sf format.StorageFormat, idx int) bool {
	return s.Has(stream, sf, idx)
}

// Delete removes the segment (all its records, for raw segments).
func (s *Store) Delete(stream string, sf format.StorageFormat, idx int) error {
	return s.DeleteRef(RefOf(stream, sf, idx))
}

// DeleteRef removes the segment replica identified by the Ref. It is the
// physical-deletion primitive the manifest's deferred deleter uses, where
// only the format's key (not the full StorageFormat) is known.
func (s *Store) DeleteRef(r Ref) error {
	if !r.Raw {
		return s.kv.Delete(encKeyOf(r.Stream, r.SFKey, r.Idx))
	}
	if err := s.kv.Delete(rawMetaKeyOf(r.Stream, r.SFKey, r.Idx)); err != nil {
		return err
	}
	for _, k := range s.kv.Keys(rawFramePrefixOf(r.Stream, r.SFKey, r.Idx)) {
		if err := s.kv.Delete(k); err != nil {
			return err
		}
	}
	return nil
}

// Segments returns the sorted indices of stored segments for the stream and
// format.
func (s *Store) Segments(stream string, sf format.StorageFormat) []int {
	var prefix string
	if sf.Coding.Raw {
		prefix = fmt.Sprintf("%s%s/%s/", rawMetaPrefix, stream, sf.Key())
	} else {
		prefix = fmt.Sprintf("%s%s/%s/", encPrefix, stream, sf.Key())
	}
	keys := s.kv.Keys(prefix)
	out := make([]int, 0, len(keys))
	for _, k := range keys {
		idxStr := k[strings.LastIndexByte(k, '/')+1:]
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Ints(out)
	return out
}

// RouteKey maps a segment-store key to its shard-routing token: all
// records of one (stream, segment index) — every storage format's
// replica, raw frames included — share a token and therefore a shard, so
// a segment's ingest, retrieval, demotion and deletion are shard-local.
// Non-segment keys (server metadata) route by their full key.
func RouteKey(key string) string {
	rest, raw := "", false
	switch {
	case strings.HasPrefix(key, encPrefix):
		rest = key[len(encPrefix):]
	case strings.HasPrefix(key, rawMetaPrefix):
		rest = key[len(rawMetaPrefix):]
	case strings.HasPrefix(key, rawPrefix):
		raw = true
		rest = key[len(rawPrefix):]
		last := strings.LastIndexByte(rest, '/')
		if last < 0 {
			return key
		}
		rest = rest[:last] // strip the per-frame pts component
	default:
		return key
	}
	r, ok := parseRefKey(rest, raw)
	if !ok {
		return key
	}
	return r.Stream + "\x00" + strconv.Itoa(r.Idx)
}

// anchorKey is the replica's metadata record: the single key whose tier
// defines the segment's tier (it is copied last and deleted last during
// demotion, so a half-migrated segment still reports its pre-migration
// tier while every record stays readable through the fast→cold
// fallthrough).
func anchorKey(r Ref) string {
	if r.Raw {
		return rawMetaKeyOf(r.Stream, r.SFKey, r.Idx)
	}
	return encKeyOf(r.Stream, r.SFKey, r.Idx)
}

// refKeys returns every live record key of the replica, frames first and
// the anchor last — the order demotion copies and deletes them in.
func (s *Store) refKeys(r Ref) []string {
	if !r.Raw {
		return []string{encKeyOf(r.Stream, r.SFKey, r.Idx)}
	}
	keys := s.kv.Keys(rawFramePrefixOf(r.Stream, r.SFKey, r.Idx))
	return append(keys, rawMetaKeyOf(r.Stream, r.SFKey, r.Idx))
}

// TierOf reports which disk tier holds the replica (by its anchor
// record). An untiered store reports Fast for every present replica.
func (s *Store) TierOf(r Ref) (tier.ID, bool) {
	if s.ts == nil {
		return tier.Fast, s.kv.Has(anchorKey(r))
	}
	return s.ts.TierOf(anchorKey(r))
}

// DemoteRef migrates the replica's records fast→cold via the engine's
// crash-safe copy-then-delete. Records are ordered frames-first,
// anchor-last, so the segment's reported tier flips to cold only once
// every record is durably migrated; a crash at any point leaves every
// record readable in exactly one tier after recovery. It is a no-op on
// an untiered store and idempotent for already-cold replicas.
func (s *Store) DemoteRef(r Ref) error {
	if s.ts == nil {
		return nil
	}
	return s.ts.Demote(s.refKeys(r))
}

// ParseKey maps a raw store key back to the segment replica owning it:
// encoded records, raw metadata records and per-frame raw records all
// resolve to their segment's Ref. Non-segment keys (server metadata)
// report ok=false. It is how the scrubber turns damaged KV keys into
// repairable replicas.
func ParseKey(key string) (Ref, bool) {
	switch {
	case strings.HasPrefix(key, encPrefix):
		return parseRefKey(key[len(encPrefix):], false)
	case strings.HasPrefix(key, rawMetaPrefix):
		return parseRefKey(key[len(rawMetaPrefix):], true)
	case strings.HasPrefix(key, rawPrefix):
		rest := key[len(rawPrefix):]
		last := strings.LastIndexByte(rest, '/')
		if last < 0 {
			return Ref{}, false
		}
		return parseRefKey(rest[:last], true) // strip the per-frame pts
	}
	return Ref{}, false
}

// VerifyAll checksums every record in the store and returns the segment
// replicas owning damaged records (deduplicated, deterministically
// ordered) plus any damaged non-segment keys (server metadata). It is
// the scrubber's walk.
func (s *Store) VerifyAll() ([]Ref, []string, error) {
	var badKeys []string
	switch {
	case s.ts != nil:
		bks, err := s.ts.VerifyAll()
		if err != nil {
			return nil, nil, err
		}
		for _, bk := range bks {
			badKeys = append(badKeys, bk.Key)
		}
	default:
		kv, ok := s.kv.(*kvstore.Store)
		if !ok {
			return nil, nil, errors.New("segment: store does not support verification")
		}
		bad, err := kv.VerifyAll()
		if err != nil {
			return nil, nil, err
		}
		badKeys = bad
	}
	seen := make(map[Ref]bool)
	var refs []Ref
	var meta []string
	for _, k := range badKeys {
		r, ok := ParseKey(k)
		if !ok {
			meta = append(meta, k)
			continue
		}
		if !seen[r] {
			seen[r] = true
			refs = append(refs, r)
		}
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Stream != refs[j].Stream {
			return refs[i].Stream < refs[j].Stream
		}
		if refs[i].Idx != refs[j].Idx {
			return refs[i].Idx < refs[j].Idx
		}
		return refs[i].SFKey < refs[j].SFKey
	})
	return refs, meta, nil
}

// DamageRef flips one stored bit of the replica's anchor record on disk
// — the bit-rot simulator behind `vstore damage` and the scrub smoke
// test. Returns ErrNotFound for absent replicas.
func (s *Store) DamageRef(r Ref) error {
	var err error
	switch {
	case s.ts != nil:
		err = s.ts.DamageValue(anchorKey(r))
	default:
		kv, ok := s.kv.(*kvstore.Store)
		if !ok {
			return errors.New("segment: store does not support damage injection")
		}
		err = kv.DamageValue(anchorKey(r))
	}
	return asSegmentErr(err)
}

// Sync makes every record written so far durable — repair's barrier
// after committing a rebuilt replica, mirroring demotion's
// write-then-sync discipline.
func (s *Store) Sync() error {
	if s.ts != nil {
		return s.ts.Sync()
	}
	if kv, ok := s.kv.(*kvstore.Store); ok {
		return kv.Sync()
	}
	return nil
}
