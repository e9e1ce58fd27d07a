// Two entry points beside Query: Evaluate runs a query request (the
// value type of internal/store) against a held snapshot, and AdoptSegment
// is the replication primitive the cluster layer's follower pulls land on.

package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/store"
	"repro/internal/tier"
)

// Evaluate resolves the request's cascade by name, applies the accuracy
// default, and runs the full QueryAt path (epoch splitting, binding
// resolution, span parallelism, degraded fallback) against the held
// snapshot.
func (s *Server) Evaluate(ctx context.Context, snap *Snapshot, req store.Request) (store.Result, error) {
	cascade, opNames, err := query.ByName(req.Query)
	if err != nil {
		return store.Result{}, err
	}
	acc := req.Accuracy
	if acc == 0 {
		acc = query.DefaultAccuracy
	}
	return s.QueryAt(ctx, snap, req.Stream, cascade, opNames, acc, req.Seg0, req.Seg1)
}

// AdoptedReplica is one storage-format replica of a segment in transit
// between nodes — replication's unit of transfer. Exactly one of Enc
// (encoded formats) and Frames (raw formats) is set, matching Raw.
type AdoptedReplica struct {
	SFKey  string
	Raw    bool
	Enc    *codec.Encoded
	Frames []*frame.Frame
}

// AdoptSegment commits a segment replicated from a peer node: every
// replica's records are written physically first (through the adopting
// node's own tier placement), then the whole segment commits to the
// manifest in one atomic step — the same visibility contract as ingest,
// so a query racing the adoption sees all of the segment or none of it —
// and the stream's position advances (persisted, so the adoption survives
// a reopen). Idempotent: a segment whose replicas are all already
// committed is skipped, which is what makes replication pulls safely
// re-runnable.
func (s *Server) AdoptSegment(stream string, idx int, replicas []AdoptedReplica) error {
	if stream == "" || len(replicas) == 0 {
		return errors.New("server: adopt needs a stream and at least one replica")
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return errors.New("server: closed")
	}
	refs := make([]segment.Ref, len(replicas))
	committed := true
	for i, rep := range replicas {
		refs[i] = segment.Ref{Stream: stream, SFKey: rep.SFKey, Raw: rep.Raw, Idx: idx}
		if !s.manifest.Contains(refs[i]) {
			committed = false
		}
	}
	if committed {
		return nil
	}
	for i, rep := range replicas {
		var err error
		if rep.Raw {
			err = s.segs.PutRawRef(refs[i], nil, rep.Frames)
		} else {
			if rep.Enc == nil {
				err = fmt.Errorf("server: adopt %s/%s/%d: encoded replica without container", stream, rep.SFKey, idx)
			} else {
				err = s.segs.PutEncodedRef(refs[i], nil, rep.Enc)
			}
		}
		if err != nil {
			// The segment never commits: the partial records are invisible,
			// and cleaning them up keeps a reopen's manifest rebuild from
			// resurrecting a half-adopted segment.
			for _, r := range refs[:i+1] {
				_ = s.segs.DeleteRef(r)
			}
			return err
		}
	}
	tiers := make([]tier.ID, len(refs))
	for i := range refs {
		tiers[i], _ = s.segs.TierOf(refs[i])
	}
	s.manifest.CommitPlaced(refs, tiers)

	s.mu.Lock()
	defer s.mu.Unlock()
	if idx+1 > s.next[stream] {
		s.next[stream] = idx + 1
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(s.next[stream]))
		if err := s.kv.Put(streamKeyPrefix+stream, buf[:]); err != nil {
			return err
		}
	}
	return nil
}
