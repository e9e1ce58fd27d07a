// Package store is the transport-agnostic boundary between the query/
// serving engine and whatever holds the segments. It names the narrow
// surface the engine actually uses — pin a consistent snapshot, enumerate
// committed refs, read segments through the snapshot, evaluate a query
// against it, observe commits — without saying anything about where the
// bytes live.
//
// The one implementation is the in-process *server.Server; a peer node is
// reached through internal/api's client, not through a second Store. The
// contract is byte-identity: every read and every evaluation through a
// Snapshot returns exactly what the server returns over the same committed
// set, at any worker count, cache state or transport. The cluster layer (internal/cluster) builds
// on this: a router relays each query from one node, and on failover the
// unrelayed remainder from a replica, so the answer is the single-node
// answer.
package store

import (
	"context"

	"repro/internal/codec"
	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/segment"
)

// Snapshot is one pinned, immutable view of a store's committed segment
// set. Reads through it are repeatable: segments eroded after the pin stay
// readable until Release, segments committed after it stay invisible. The
// read methods satisfy retrieve.SegmentReader, so a query engine pointed
// at a Snapshot observes exactly the pinned set for its whole run.
//
// Implementations must be safe for concurrent use — the engine fans
// per-segment reads across a worker pool.
type Snapshot interface {
	// Segments returns the stream's committed segment count at pin time;
	// [0, Segments) is the widest range a snapshot query can cover.
	Segments(stream string) int
	// Refs returns the sorted committed segment indices of the stream in
	// the storage format identified by sfKey.
	Refs(stream, sfKey string) []int
	// Visible reports whether the replica may be read at all (it was
	// committed when the snapshot was pinned). Consulted before every
	// lookup, cache lookups included.
	Visible(stream string, sf format.StorageFormat, idx int) bool
	// GetEncoded loads an encoded segment the snapshot contains.
	GetEncoded(stream string, sf format.StorageFormat, idx int) (*codec.Encoded, error)
	// VisitRaw hands visit the raw frames for which keep(pts) is true (nil
	// keeps all) under segment.RawVisitor's lending rule, returning the disk
	// bytes the read cost — implementations must account exactly like
	// segment.Store.VisitRaw so stats stay identical across transports.
	VisitRaw(stream string, sf format.StorageFormat, idx int, keep func(pts int) bool, visit segment.RawVisitor) (int64, error)
	// Release ends the pin. Idempotent; reads after Release are undefined.
	Release() error
}

// Request names one query evaluation: the cascade (by name, resolved
// through query.ByName), the target accuracy, and the segment range
// [Seg0, Seg1) of the stream. Zero Query selects "A"; zero Accuracy
// selects 0.9 — the defaults every existing entry point applies.
type Request struct {
	Stream   string
	Query    string
	Accuracy float64
	Seg0     int
	Seg1     int
}

// Result is a query's outcome: per-epoch span results merged in segment
// order, exactly server.QueryResult (which aliases this type).
type Result struct {
	Results []query.Result
}

// Speed returns the overall query speed across spans.
func (r Result) Speed() float64 {
	var vid, sec float64
	for _, one := range r.Results {
		vid += one.VideoSeconds
		sec += one.VirtualSeconds
	}
	if sec <= 0 {
		return 0
	}
	return vid / sec
}

// Detections returns every span's final-stage detections in segment
// order.
func (r Result) Detections() []ops.Detection {
	var out []ops.Detection
	for _, one := range r.Results {
		out = append(out, one.Detections...)
	}
	return out
}

// Store is the transport-agnostic store surface. All methods are safe for
// concurrent use.
type Store interface {
	// Pin freezes the current committed state for querying. The caller
	// must Release the snapshot.
	Pin() (Snapshot, error)
	// Evaluate runs the request against the pinned snapshot, through the
	// full engine path (epoch splitting, binding resolution, degraded
	// fallback) of whichever node owns the bytes. snap must come from this
	// store's Pin. The result is byte-identical at the wire-chunk level to
	// any other evaluation of the same request over the same committed set.
	Evaluate(ctx context.Context, snap Snapshot, req Request) (Result, error)
	// SubscribeCommits registers fn to observe every segment commit from
	// this point on, exactly once, in commit order — the hook standing
	// queries hang off. fn must be fast and non-blocking (hand off to a
	// bounded channel); the returned cancel detaches it.
	SubscribeCommits(fn func(segment.Commit)) (cancel func())
	// StreamSegments returns every known stream with its committed segment
	// count.
	StreamSegments() map[string]int
}
