// Manifest layers snapshot isolation over the segment store. The store's
// records are multi-key (a raw segment is one metadata record plus one
// record per frame) and multi-format (one segment is stored under every
// derived SF), so concurrent readers could otherwise observe half-ingested
// or half-eroded segments. The manifest is the single source of truth for
// which segments are *committed*: ingestion writes all of a segment's
// records first and then commits them in one atomic step, erosion removes
// segments from the manifest first and physically deletes their records
// only once no snapshot can still read them.
//
// Readers take a Snapshot — an immutable view of the committed set — and
// read through a View, which reports any segment outside the snapshot as
// ErrNotFound before any byte is touched (including cached bytes). Removed
// segments stay physically present until the last snapshot taken before
// the removal is released, so an in-flight query never has a segment
// deleted out from under it.

package segment

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/tier"
)

// Ref identifies one stored segment replica: a stream's segment index in
// one storage format. Raw rides along so a Ref alone suffices to delete
// the underlying records (raw and encoded segments use different key
// layouts).
type Ref struct {
	Stream string
	SFKey  string
	Raw    bool
	Idx    int
}

// RefOf builds the Ref for a segment of the stream in the given format.
func RefOf(stream string, sf format.StorageFormat, idx int) Ref {
	return Ref{Stream: stream, SFKey: sf.Key(), Raw: sf.Coding.Raw, Idx: idx}
}

// pendingDelete is a logically removed segment awaiting physical deletion:
// safe to delete once every snapshot older than removedAt is released.
type pendingDelete struct {
	ref       Ref
	removedAt int64
}

// ManifestStats reports the manifest's occupancy and snapshot activity.
type ManifestStats struct {
	Live            int   // committed segment replicas
	FastLive        int   // committed replicas recorded on the fast tier
	ColdLive        int   // committed replicas recorded on the cold tier
	ActiveSnapshots int   // snapshots taken and not yet released
	SnapshotsTaken  int64 // snapshots ever taken
	PendingDeletes  int   // removed segments awaiting snapshot release
}

// Commit describes one committed segment becoming visible: every replica
// of (Stream, Idx) — one per storage format — commits in a single atomic
// step, and Seq is the commit's position in the manifest's total commit
// order (1-based, strictly increasing, never reused). Erosion removes
// segments without ever emitting a Commit.
type Commit struct {
	Stream string
	Idx    int
	Seq    int64
}

// Manifest tracks the committed segment set with copy-on-write versioning.
// All methods are safe for concurrent use.
type Manifest struct {
	mu      sync.Mutex
	deleter func(Ref) error
	live    map[Ref]struct{}
	tiers   map[Ref]tier.ID // committed replica → disk tier (Fast if absent)
	frozen  bool            // live is shared with a snapshot; clone before mutating
	version int64
	active  map[int64]int // refcount of snapshots per version
	taken   int64
	pending []pendingDelete

	// Commit notification: listeners run inside the commit critical
	// section, so notification order IS commit order and a listener
	// registered between two commits sees exactly the later one.
	listeners  map[int]func(Commit)
	nextListen int
	commitSeq  int64
}

// NewManifest returns an empty manifest. deleter physically deletes one
// segment replica's records; it runs when a removed segment's last
// covering snapshot is released (immediately if none is active).
func NewManifest(deleter func(Ref) error) *Manifest {
	return &Manifest{
		deleter: deleter,
		live:    make(map[Ref]struct{}),
		tiers:   make(map[Ref]tier.ID),
		active:  make(map[int64]int),
	}
}

// mutateLocked prepares the live set for mutation, cloning it if a
// snapshot holds the current map. Caller holds mu.
func (m *Manifest) mutateLocked() {
	if m.frozen {
		clone := make(map[Ref]struct{}, len(m.live))
		for r := range m.live {
			clone[r] = struct{}{}
		}
		m.live = clone
		m.frozen = false
	}
	m.version++
}

// Commit makes the given segment replicas visible atomically on the fast
// tier: a snapshot taken before the call sees none of them, one taken
// after sees all.
func (m *Manifest) Commit(refs ...Ref) {
	m.commit(refs, nil)
}

// CommitPlaced is Commit with each replica's disk tier recorded —
// derivation-driven placement lands different storage formats of one
// segment on different tiers, yet they become visible in one atomic
// step. tiers runs parallel to refs.
func (m *Manifest) CommitPlaced(refs []Ref, tiers []tier.ID) {
	m.commit(refs, tiers)
}

func (m *Manifest) commit(refs []Ref, tiers []tier.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mutateLocked()
	for i, r := range refs {
		m.live[r] = struct{}{}
		t := tier.Fast
		if tiers != nil {
			t = tiers[i]
		}
		if t == tier.Fast {
			delete(m.tiers, r)
		} else {
			m.tiers[r] = t
		}
	}
	m.notifyLocked(refs)
}

// notifyLocked emits one Commit per distinct (stream, idx) of the batch to
// every listener, in ref order. Caller holds mu — the commit's visibility
// and its notification are one atomic step, so a snapshot taken after a
// listener observes Commit N always contains segment N. Caller-batch
// commits span one segment in practice, so the dedup scan is tiny.
func (m *Manifest) notifyLocked(refs []Ref) {
	for i, r := range refs {
		seen := false
		for _, prev := range refs[:i] {
			if prev.Stream == r.Stream && prev.Idx == r.Idx {
				seen = true
				break
			}
		}
		if seen {
			continue
		}
		m.commitSeq++
		c := Commit{Stream: r.Stream, Idx: r.Idx, Seq: m.commitSeq}
		for _, fn := range m.listeners {
			fn(c)
		}
	}
}

// SubscribeCommits registers fn to observe every future segment commit,
// returning a cancel func. fn runs synchronously inside the commit's
// critical section: it observes commits exactly once, in commit order,
// atomically with the segments becoming visible — a subscriber registered
// mid-ingest sees precisely the commits that happen after registration.
// fn MUST be fast and non-blocking (hand off to a bounded channel) and
// MUST NOT call back into the manifest, or ingest would stall or deadlock.
// Cancellation is also atomic: once cancel returns, fn never runs again.
func (m *Manifest) SubscribeCommits(fn func(Commit)) (cancel func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.listeners == nil {
		m.listeners = make(map[int]func(Commit))
	}
	id := m.nextListen
	m.nextListen++
	m.listeners[id] = fn
	return func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(m.listeners, id)
	}
}

// CommitSeq reports the sequence number of the most recent commit (0
// before any). A subscriber pairs it with SubscribeCommits to know where
// its observed suffix begins.
func (m *Manifest) CommitSeq() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.commitSeq
}

// SetTier records a committed replica's disk tier — what a demotion pass
// calls once the records are durably migrated. Unknown refs are ignored.
func (m *Manifest) SetTier(r Ref, t tier.ID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[r]; !ok {
		return
	}
	if t == tier.Fast {
		delete(m.tiers, r)
	} else {
		m.tiers[r] = t
	}
}

// TierOf reports a committed replica's recorded disk tier.
func (m *Manifest) TierOf(r Ref) (tier.ID, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.live[r]; !ok {
		return tier.Fast, false
	}
	return m.tiers[r], true
}

// RefsInTier returns the committed replicas recorded on the given tier,
// sorted oldest-first (segment index, then stream, then format key) —
// the deterministic order demotion walks.
func (m *Manifest) RefsInTier(t tier.ID) []Ref {
	m.mu.Lock()
	var out []Ref
	for r := range m.live {
		if m.tiers[r] == t {
			out = append(out, r)
		}
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Idx != out[j].Idx {
			return out[i].Idx < out[j].Idx
		}
		if out[i].Stream != out[j].Stream {
			return out[i].Stream < out[j].Stream
		}
		return out[i].SFKey < out[j].SFKey
	})
	return out
}

// Remove logically deletes the given replicas: they vanish from all future
// snapshots immediately, while their records are physically deleted only
// once every snapshot that could still read them is released. The returned
// error is the first physical-deletion failure, if any deletion ran
// inline.
func (m *Manifest) Remove(refs ...Ref) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mutateLocked()
	for _, r := range refs {
		if _, ok := m.live[r]; !ok {
			continue
		}
		delete(m.live, r)
		delete(m.tiers, r)
		m.pending = append(m.pending, pendingDelete{ref: r, removedAt: m.version})
	}
	return m.flushLocked()
}

// flushLocked physically deletes pending removals no active snapshot can
// reach. A failed deletion stays pending — it is retried on the next
// flush (any later Remove or snapshot release), so a transient store
// error cannot silently leak the records. Caller holds mu.
func (m *Manifest) flushLocked() error {
	min, any := m.minActiveLocked()
	var firstErr error
	kept := m.pending[:0]
	for _, p := range m.pending {
		if any && min < p.removedAt {
			kept = append(kept, p)
			continue
		}
		if err := m.deleter(p.ref); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			kept = append(kept, p)
		}
	}
	m.pending = kept
	return firstErr
}

// minActiveLocked returns the oldest active snapshot version, and whether
// any snapshot is active. Caller holds mu.
func (m *Manifest) minActiveLocked() (int64, bool) {
	var min int64
	any := false
	for v := range m.active {
		if !any || v < min {
			min = v
		}
		any = true
	}
	return min, any
}

// Contains reports whether the replica is currently committed.
func (m *Manifest) Contains(r Ref) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.live[r]
	return ok
}

// Segments returns the sorted committed segment indices of the stream in
// the format identified by sfKey.
func (m *Manifest) Segments(stream, sfKey string) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []int
	for r := range m.live {
		if r.Stream == stream && r.SFKey == sfKey {
			out = append(out, r.Idx)
		}
	}
	sort.Ints(out)
	return out
}

// Snapshot freezes the current committed set. The caller must Release it;
// until then, segments removed after the snapshot stay physically
// readable.
func (m *Manifest) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.frozen = true
	m.active[m.version]++
	m.taken++
	return &Snapshot{m: m, live: m.live, version: m.version}
}

// Stats returns the manifest's occupancy and snapshot counters.
func (m *Manifest) Stats() ManifestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.active {
		n += c
	}
	cold := 0
	for r := range m.tiers {
		if _, ok := m.live[r]; ok {
			cold++
		}
	}
	return ManifestStats{
		Live:            len(m.live),
		FastLive:        len(m.live) - cold,
		ColdLive:        cold,
		ActiveSnapshots: n,
		SnapshotsTaken:  m.taken,
		PendingDeletes:  len(m.pending),
	}
}

// Snapshot is an immutable view of the committed segment set at one
// manifest version. It is safe for concurrent use; Release is idempotent.
type Snapshot struct {
	m       *Manifest
	live    map[Ref]struct{}
	version int64
	once    sync.Once
}

// Contains reports whether the replica was committed when the snapshot was
// taken.
func (s *Snapshot) Contains(r Ref) bool {
	_, ok := s.live[r]
	return ok
}

// Refs returns every committed replica of the stream with index from or
// later in the snapshot, sorted by (index, format key) — the order a
// replication pull streams and adopts them in.
func (s *Snapshot) Refs(stream string, from int) []Ref {
	var out []Ref
	for r := range s.live {
		if r.Stream == stream && r.Idx >= from {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Idx != out[j].Idx {
			return out[i].Idx < out[j].Idx
		}
		return out[i].SFKey < out[j].SFKey
	})
	return out
}

// Release ends the snapshot's pin on removed-but-undeleted segments,
// physically deleting any that no other snapshot can reach. It returns the
// first deletion error, and nil on every call after the first.
func (s *Snapshot) Release() error {
	var err error
	s.once.Do(func() {
		s.m.mu.Lock()
		defer s.m.mu.Unlock()
		s.m.active[s.version]--
		if s.m.active[s.version] <= 0 {
			delete(s.m.active, s.version)
		}
		err = s.m.flushLocked()
	})
	return err
}

// View is a snapshot-scoped read surface over a segment store: reads of
// segments outside the snapshot fail with ErrNotFound before any record —
// or cached frame — is touched. It implements the retriever's store
// interface, so a query engine pointed at a View observes exactly the
// snapshot's segment set for its whole run.
type View struct {
	Store *Store
	Snap  *Snapshot
}

// Visible reports whether the segment is part of the view's snapshot.
func (v *View) Visible(stream string, sf format.StorageFormat, idx int) bool {
	return v.Snap.Contains(RefOf(stream, sf, idx))
}

// GetEncoded loads an encoded segment if the snapshot contains it.
func (v *View) GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error) {
	if !v.Visible(stream, sf, idx) {
		return nil, ErrNotFound
	}
	return v.Store.GetEncoded(stream, sf, idx)
}

// GetRaw loads a raw segment's kept frames if the snapshot contains it.
func (v *View) GetRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool) ([]*frame.Frame, int64, error) {
	if !v.Visible(stream, sf, idx) {
		return nil, 0, ErrNotFound
	}
	return v.Store.GetRaw(stream, sf, idx, keep)
}

// VisitRaw visits a raw segment's kept frames if the snapshot contains it.
func (v *View) VisitRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool, visit RawVisitor) (int64, error) {
	if !v.Visible(stream, sf, idx) {
		return 0, ErrNotFound
	}
	return v.Store.VisitRaw(stream, sf, idx, keep, visit)
}

// ScanRefs calls fn for every segment replica physically present in the
// store, in no particular order. It is how a reopened server rebuilds its
// manifest from disk.
func (s *Store) ScanRefs(fn func(Ref)) {
	for _, k := range s.kv.Keys(encPrefix) {
		if r, ok := parseRefKey(k[len(encPrefix):], false); ok {
			fn(r)
		}
	}
	for _, k := range s.kv.Keys(rawMetaPrefix) {
		if r, ok := parseRefKey(k[len(rawMetaPrefix):], true); ok {
			fn(r)
		}
	}
}

// parseRefKey parses "<stream>/<sfkey>/<idx>" from the right: sfKey and
// idx are '/'-free by construction, so a stream name containing '/' still
// parses correctly.
func parseRefKey(rest string, raw bool) (Ref, bool) {
	last := strings.LastIndexByte(rest, '/')
	if last < 0 {
		return Ref{}, false
	}
	idx, err := strconv.Atoi(rest[last+1:])
	if err != nil {
		return Ref{}, false
	}
	mid := strings.LastIndexByte(rest[:last], '/')
	if mid < 0 {
		return Ref{}, false
	}
	return Ref{Stream: rest[:mid], SFKey: rest[mid+1 : last], Raw: raw, Idx: idx}, true
}
