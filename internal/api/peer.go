// Peer endpoints: the wire surface follower replication (pullStream)
// drives. A peer pins a snapshot through a TTL lease, enumerates and
// fetches segment replicas through it, and replicates whole streams with
// idempotent pulls. Nothing here reaches past what a local holder of a
// server.Snapshot could do.

package api

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/segment"
	"repro/internal/server"
)

// handleSnapshot pins a snapshot and grants a lease on it. The table owns
// the pin from here: it releases on POST /v1/snapshot/release, on idle
// expiry past the lease TTL, or at shutdown.
func (s *Server) handleSnapshot(w *Response, r *http.Request) {
	snap, err := s.store.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	id := s.leases.Grant(snap)
	WriteJSON(w, http.StatusOK, SnapshotResponse{ID: id, Streams: snap.StreamSegments()})
}

func (s *Server) handleSnapshotRelease(w *Response, r *http.Request) {
	var req SnapshotReleaseRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.ID == "" {
		http.Error(w, "missing lease id", http.StatusBadRequest)
		return
	}
	WriteJSON(w, http.StatusOK, SnapshotReleaseResponse{Found: s.leases.Release(req.ID)})
}

// leasedSnapshot resolves the snap query parameter to the leased server
// snapshot, renewing its TTL. A false return means the response is
// written.
func (s *Server) leasedSnapshot(w http.ResponseWriter, id string) (*server.Snapshot, bool) {
	if id == "" {
		http.Error(w, "missing snap lease id", http.StatusBadRequest)
		return nil, false
	}
	leased, ok := s.leases.Get(id)
	if !ok {
		http.Error(w, "unknown snapshot lease", http.StatusNotFound)
		return nil, false
	}
	sn, ok := leased.(*server.Snapshot)
	if !ok {
		http.Error(w, "snapshot lease is not readable here", http.StatusInternalServerError)
		return nil, false
	}
	return sn, true
}

// handleRefs enumerates one stream's committed replicas in the leased
// snapshot, optionally filtered to one storage format.
func (s *Server) handleRefs(w *Response, r *http.Request) {
	q := r.URL.Query()
	stream := q.Get("stream")
	if stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	sn, ok := s.leasedSnapshot(w, q.Get("snap"))
	if !ok {
		return
	}
	sf := q.Get("sf")
	resp := RefsResponse{Refs: []WireRef{}}
	for _, ref := range sn.RefsOf(stream) {
		if sf != "" && ref.SFKey != sf {
			continue
		}
		resp.Refs = append(resp.Refs, WireRef{SF: ref.SFKey, Raw: ref.Raw, Idx: ref.Idx})
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleSegment serves one replica's bytes through a leased snapshot:
// codec container bytes for encoded formats, the raw-segment wire framing
// for raw ones. Replicas outside the snapshot's committed set are 404;
// inside it the bytes stay readable even if erosion removed the segment
// after the pin — that is what the lease pins.
func (s *Server) handleSegment(w *Response, r *http.Request) {
	q := r.URL.Query()
	stream, sf := q.Get("stream"), q.Get("sf")
	if stream == "" || sf == "" {
		http.Error(w, "missing stream or sf", http.StatusBadRequest)
		return
	}
	idx, err := strconv.Atoi(q.Get("idx"))
	if err != nil || idx < 0 {
		http.Error(w, "bad segment index", http.StatusBadRequest)
		return
	}
	raw := false
	if v := q.Get("raw"); v != "" {
		if raw, err = strconv.ParseBool(v); err != nil {
			http.Error(w, "bad raw flag", http.StatusBadRequest)
			return
		}
	}
	sn, ok := s.leasedSnapshot(w, q.Get("snap"))
	if !ok {
		return
	}
	ref := segment.Ref{Stream: stream, SFKey: sf, Raw: raw, Idx: idx}
	var body []byte
	if raw {
		frames, _, err := sn.GetRawRef(ref)
		if err == nil {
			body = segment.MarshalRawSegment(frames)
		} else if errors.Is(err, segment.ErrNotFound) {
			http.Error(w, "segment not in snapshot", http.StatusNotFound)
			return
		} else {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		enc, err := sn.GetEncodedRef(ref)
		if errors.Is(err, segment.ErrNotFound) {
			http.Error(w, "segment not in snapshot", http.StatusNotFound)
			return
		} else if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body = enc.Marshal()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// handlePull replicates one stream from a peer node onto this one: pin a
// snapshot on the source, walk its committed replicas, fetch and adopt the
// segments this node is missing. Admitted through the fair gate — a pull
// is ingest-weight work. Idempotent by construction (AdoptSegment skips
// fully-committed segments), so the cluster layer re-runs it freely.
func (s *Server) handlePull(w *Response, r *http.Request) {
	var req PullRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Stream == "" || req.Source == "" {
		http.Error(w, "missing stream or source", http.StatusBadRequest)
		return
	}
	release, ok := s.acquire(r.Context(), w, r)
	if !ok {
		return
	}
	defer release()
	n, err := s.pullStream(r.Context(), req.Stream, req.Source, APIKey(r))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	WriteJSON(w, http.StatusOK, PullResponse{Segments: n})
}

// pullStream does the pull: one source-side snapshot lease covers every
// fetch, so the adopted segments are a consistent prefix of the source's
// history even while the source keeps ingesting.
func (s *Server) pullStream(ctx context.Context, stream, source, key string) (int, error) {
	src := &Client{BaseURL: source, APIKey: key}
	lease, err := src.PinSnapshot(ctx)
	if err != nil {
		return 0, err
	}
	defer func() {
		rctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, _ = src.ReleaseSnapshot(rctx, lease.ID)
	}()
	refs, err := src.Refs(ctx, lease.ID, stream, "")
	if err != nil {
		return 0, err
	}

	local, err := s.store.Snapshot()
	if err != nil {
		return 0, err
	}
	have := map[segment.Ref]bool{}
	for _, ref := range local.RefsOf(stream) {
		have[ref] = true
	}
	_ = local.Release()

	byIdx := map[int][]WireRef{}
	for _, wr := range refs {
		byIdx[wr.Idx] = append(byIdx[wr.Idx], wr)
	}
	idxs := make([]int, 0, len(byIdx))
	for idx := range byIdx {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)

	adopted := 0
	for _, idx := range idxs {
		missing := false
		for _, wr := range byIdx[idx] {
			if !have[segment.Ref{Stream: stream, SFKey: wr.SF, Raw: wr.Raw, Idx: idx}] {
				missing = true
				break
			}
		}
		if !missing {
			continue
		}
		replicas := make([]server.AdoptedReplica, 0, len(byIdx[idx]))
		for _, wr := range byIdx[idx] {
			if wr.Raw {
				frames, err := src.SegmentRaw(ctx, lease.ID, stream, wr.SF, idx)
				if err != nil {
					return adopted, err
				}
				replicas = append(replicas, server.AdoptedReplica{SFKey: wr.SF, Raw: true, Frames: frames})
			} else {
				enc, err := src.SegmentEncoded(ctx, lease.ID, stream, wr.SF, idx)
				if err != nil {
					return adopted, err
				}
				replicas = append(replicas, server.AdoptedReplica{SFKey: wr.SF, Enc: enc})
			}
		}
		if err := s.store.AdoptSegment(stream, idx, replicas); err != nil {
			return adopted, err
		}
		adopted++
	}
	return adopted, nil
}
