// Live serving: per-stream streaming-ingest pipelines, explicit query
// snapshots, and the background erosion daemon. See the package comment
// for how the three compose into concurrent ingest-while-query with
// snapshot isolation.

package server

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/codec"
	"repro/internal/erode"
	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/ingest"
	"repro/internal/results"
	"repro/internal/segment"
)

// Snapshot is a server-wide consistent read view: the segment manifest,
// the epoch list, and every stream's committed length, all frozen at one
// instant. Queries through it (QueryAt) are repeatable — concurrent ingest
// and erosion change nothing a held snapshot can observe — and segments
// eroded after the snapshot stay physically readable until Release.
type Snapshot struct {
	ms     *segment.Snapshot
	view   *segment.View // snapshot-scoped read surface over the segment store
	epochs []*Epoch
	lens   map[string]int
}

// Snapshot freezes the current server state for querying. Callers must
// Release it; Query does this automatically for the common one-shot case.
func (s *Server) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: closed")
	}
	lens := make(map[string]int, len(s.next))
	for k, v := range s.next {
		lens[k] = v
	}
	ms := s.manifest.Snapshot()
	return &Snapshot{
		ms:     ms,
		view:   &segment.View{Store: s.segs, Snap: ms},
		epochs: append([]*Epoch(nil), s.epochs...),
		lens:   lens,
	}, nil
}

// Segments returns the stream's segment count when the snapshot was taken;
// [0, Segments) is the widest range a snapshot query can cover.
func (sn *Snapshot) Segments(stream string) int { return sn.lens[stream] }

// StreamSegments returns every stream's committed length at the pin — what
// a snapshot lease reports to the remote peer that pinned it.
func (sn *Snapshot) StreamSegments() map[string]int {
	out := make(map[string]int, len(sn.lens))
	for k, v := range sn.lens {
		out[k] = v
	}
	return out
}

// Refs returns the snapshot's sorted committed segment indices of the
// stream in the storage format identified by sfKey (store.Snapshot's
// enumeration surface).
func (sn *Snapshot) Refs(stream, sfKey string) []int { return sn.ms.Segments(stream, sfKey) }

// RefsOf returns every committed replica of the stream in the snapshot,
// sorted by (format key, index) — the full enumeration replication pulls
// walk.
func (sn *Snapshot) RefsOf(stream string) []segment.Ref { return sn.ms.Refs(stream) }

// Visible reports whether the replica was committed when the snapshot was
// taken. Together with GetEncoded and VisitRaw this makes the Snapshot
// itself a retrieve.SegmentReader — the surface a query engine (local or
// remote) reads through.
func (sn *Snapshot) Visible(stream string, sf format.StorageFormat, idx int) bool {
	return sn.view.Visible(stream, sf, idx)
}

// GetEncoded loads an encoded segment the snapshot contains.
func (sn *Snapshot) GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error) {
	return sn.view.GetEncoded(stream, sf, idx)
}

// VisitRaw visits a raw segment's kept frames if the snapshot contains it.
func (sn *Snapshot) VisitRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool, visit segment.RawVisitor) (int64, error) {
	return sn.view.VisitRaw(stream, sf, idx, keep, visit)
}

// GetEncodedRef reads an encoded replica by manifest ref through the
// snapshot: outside the committed set is ErrNotFound, inside it the bytes
// are physically readable even if erosion removed the segment after the
// pin — exactly what /v1/segment serves a remote peer.
func (sn *Snapshot) GetEncodedRef(r segment.Ref) (*codec.Encoded, error) {
	if !sn.ms.Contains(r) {
		return nil, segment.ErrNotFound
	}
	return sn.view.Store.GetEncodedRef(r)
}

// GetRawRef reads every present frame of a raw replica by manifest ref
// through the snapshot.
func (sn *Snapshot) GetRawRef(r segment.Ref) ([]*frame.Frame, int64, error) {
	if !sn.ms.Contains(r) {
		return nil, 0, segment.ErrNotFound
	}
	return sn.view.Store.GetRawRef(r, nil)
}

// Release ends the snapshot's pin on eroded-but-undeleted segments. It is
// idempotent.
func (sn *Snapshot) Release() error { return sn.ms.Release() }

// SubscribeCommits registers fn to observe every segment commit from this
// point on — the hook standing queries hang off. fn runs inside the
// manifest's commit step (atomic with visibility: a snapshot taken after
// fn observes a commit always contains that segment), so it must be fast,
// non-blocking, and must not call back into the server or manifest; hand
// the Commit off to a bounded channel. The returned cancel is idempotent
// in effect: after it returns, fn never runs again.
func (s *Server) SubscribeCommits(fn func(segment.Commit)) (cancel func()) {
	return s.manifest.SubscribeCommits(fn)
}

// manifestSet adapts the manifest to erosion's SegmentSet: enumeration
// sees only committed segments (never a replica an earlier pass already
// removed but whose records a snapshot still pins), and deletion is
// logical-first through the manifest.
type manifestSet struct {
	m       *segment.Manifest
	store   *segment.Store
	results *results.Store // may be nil (materialization disabled)
}

func (ms manifestSet) Segments(stream string, sf format.StorageFormat) []int {
	return ms.m.Segments(stream, sf.Key())
}

func (ms manifestSet) Delete(stream string, sf format.StorageFormat, idx int) error {
	// Materialized results for the segment drop BEFORE the replica leaves
	// the manifest — and long before its bytes are physically deleted — so
	// no window exists where a query could serve a stored result for
	// footage the store has already let go. The invalidation also bumps the
	// stream's generation, dropping in-flight fills that raced the removal.
	ms.results.InvalidateSegment(stream, idx)
	return ms.m.Remove(segment.RefOf(stream, sf, idx))
}

// StartStream opens a live streaming-ingest pipeline for the named stream:
// a dedicated goroutine drains a bounded segment queue
// (ingest.DefaultQueueDepth deep), transcoding each segment on the shared pool
// and committing it atomically. Submit full-fidelity segments on the
// returned pipeline; stop it with StopStream (or Close, which stops all).
func (s *Server) StartStream(name string) (*ingest.Stream, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: closed")
	}
	if len(s.epochs) == 0 {
		return nil, fmt.Errorf("server: no configuration installed; call Reconfigure first")
	}
	if _, ok := s.streams[name]; ok {
		return nil, fmt.Errorf("server: stream %q is already live", name)
	}
	// A live stream keeps one segment in flight: its next segment waits
	// for this one's commit, so a standing query's commit-time evaluation
	// keeps the core a pipelined transcode would take. Within the segment,
	// the longest encode borrows the pool slots the others leave idle.
	st := ingest.NewStream(name, 0, func(full []*frame.Frame) error {
		r, err := s.reserve(name, func(int) []*frame.Frame { return full })
		if err != nil {
			return err
		}
		_, _, err = s.transcode(r)
		return s.commit(r, err)
	})
	s.streams[name] = st
	return st, nil
}

// Stream returns the named live pipeline, or nil if it is not running.
func (s *Server) Stream(name string) *ingest.Stream {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.streams[name]
}

// StopStream drains and stops the named live pipeline, returning its first
// ingest error (nil for an unknown stream).
func (s *Server) StopStream(name string) error {
	s.mu.Lock()
	st := s.streams[name]
	delete(s.streams, name)
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Stop()
}

// DrainStreams blocks until every live pipeline's queue is empty — every
// segment submitted so far is durably ingested (or failed). Streams keep
// accepting segments.
func (s *Server) DrainStreams() {
	s.mu.Lock()
	streams := make([]*ingest.Stream, 0, len(s.streams))
	for _, st := range s.streams {
		streams = append(streams, st)
	}
	s.mu.Unlock()
	for _, st := range streams {
		st.Drain()
	}
}

// LiveStreams reports the per-stream ingest stats of every live pipeline.
func (s *Server) LiveStreams() map[string]ingest.StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ingest.StreamStats, len(s.streams))
	for name, st := range s.streams {
		out[name] = st.Stats()
	}
	return out
}

// AgeFunc maps a stream's segment index to its age in days — the erosion
// daemon's notion of footage age.
type AgeFunc func(stream string, idx int) int

// AgeByToday returns the usual deployment age function: segment ages grow
// as today advances, one day per erode.SegmentsPerDay segments.
func AgeByToday(today func() int) AgeFunc {
	return func(_ string, idx int) int { return today() - idx/erode.SegmentsPerDay }
}

// ErodePass runs one erosion pass over every known stream — what the
// background daemon does on each tick. It returns the total segments
// eroded and the first per-stream error.
func (s *Server) ErodePass(age AgeFunc) (int, error) {
	s.mu.Lock()
	streams := make([]string, 0, len(s.next))
	for name := range s.next {
		streams = append(streams, name)
	}
	s.mu.Unlock()
	sort.Strings(streams)
	total := 0
	var firstErr error
	for _, stream := range streams {
		stream := stream
		n, err := s.Erode(stream, func(idx int) int { return age(stream, idx) })
		total += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return total, firstErr
}

// StartErosionDaemon launches the background erosion daemon: every
// interval (which must be positive) it applies each epoch's
// erosion plan and retention expiry to every stream, invalidating the
// retrieval cache for eroded segments generation-safely exactly as a
// manual Erode does. clock nil selects the wall clock; tests inject
// erode.NewManualClock() to drive passes deterministically.
func (s *Server) StartErosionDaemon(interval time.Duration, clock erode.Clock, age AgeFunc) (*erode.Daemon, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: closed")
	}
	if s.daemon != nil {
		return nil, fmt.Errorf("server: erosion daemon already running")
	}
	d := &erode.Daemon{
		Interval: interval,
		Clock:    clock,
		// Demotion runs before erosion on every tick: aged segments
		// migrate off the fast tier (and the fast-tier budget is
		// re-enforced) before the erosion plan decides what footage to
		// drop entirely.
		Demote: func() error {
			_, err := s.DemotePass(age)
			return err
		},
		Pass: func() error {
			_, err := s.ErodePass(age)
			return err
		},
		// The integrity scrub joins the rotation after erosion: bit rot
		// is found and healed on the same cadence footage ages.
		Scrub: func() error {
			_, err := s.ScrubPass()
			return err
		},
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	s.daemon = d
	return d, nil
}

// StopErosionDaemon stops the background eroder, returning its last pass
// error. It is a no-op when no daemon runs.
func (s *Server) StopErosionDaemon() error {
	s.mu.Lock()
	d := s.daemon
	s.mu.Unlock()
	if d == nil {
		return nil
	}
	// Stop outside mu: it waits for an in-flight pass, which takes mu via
	// ErodePass. The daemon is unregistered only after its passes fold
	// into the running total, so Stats never observes the counter dip,
	// and the registration check keeps a concurrent Stop from folding
	// twice.
	err := d.Stop()
	s.mu.Lock()
	if s.daemon == d {
		s.pastErodePasses += d.Stats().Passes
		s.daemon = nil
	}
	s.mu.Unlock()
	return err
}
