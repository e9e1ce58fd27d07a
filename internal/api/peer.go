// Peer endpoints: what follower replication drives. A follower's pull
// (POST /v1/pull) is one POST /v1/replicas to the source, which pins a
// snapshot for that request alone and streams every replica of the stream
// from the follower's committed length on. Nothing here reaches past what
// a local holder of a server.Snapshot could do.

package api

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/codec"
	"repro/internal/segment"
	"repro/internal/server"
)

// handleReplicas streams one stream's committed replicas with index From
// or later, in (index, format key) order, from a snapshot pinned for the
// request's life: each is a ReplicaLine header followed by its N bytes, and
// a Done line ends the stream. Replicas eroded after the pin stay readable
// until the request ends.
func (s *Server) handleReplicas(w *Response, r *http.Request) {
	var req ReplicasRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Stream == "" || req.From < 0 {
		http.Error(w, "missing stream or negative from", http.StatusBadRequest)
		return
	}
	snap, err := s.store.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	w.Header().Set("Content-Type", "application/octet-stream")
	line := func(l ReplicaLine) error {
		b, _ := json.Marshal(l) // no field can fail to encode
		_, err := w.Write(append(b, '\n'))
		return err
	}
	for _, ref := range snap.RefsOf(req.Stream, req.From) {
		body, err := replicaBytes(snap, ref)
		if err != nil {
			w.MidStreamErr = true
			_ = line(ReplicaLine{Error: err.Error()})
			return
		}
		if line(ReplicaLine{SF: ref.SFKey, Raw: ref.Raw, Idx: ref.Idx, N: len(body)}) != nil {
			return
		}
		if _, err := w.Write(body); err != nil {
			return
		}
	}
	_ = line(ReplicaLine{Done: true})
}

// replicaBytes reads one replica through the snapshot in its transport
// framing: codec container bytes for encoded formats, the raw-segment wire
// framing for raw ones.
func replicaBytes(snap *server.Snapshot, ref segment.Ref) ([]byte, error) {
	if ref.Raw {
		frames, _, err := snap.GetRawRef(ref)
		if err != nil {
			return nil, err
		}
		return segment.MarshalRawSegment(frames), nil
	}
	enc, err := snap.GetEncodedRef(ref)
	if err != nil {
		return nil, err
	}
	return enc.Marshal(), nil
}

// handlePull replicates one stream from a peer node onto this one. One
// pull per stream runs at a time, and a pull waits for its stream's turn
// before it takes a slot of the fair gate — a pull is ingest-weight work.
// Idempotent: a pull copies only what lies past this node's committed
// length, so the cluster layer re-runs it freely.
func (s *Server) handlePull(w *Response, r *http.Request) {
	var req PullRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Stream == "" || req.Source == "" {
		http.Error(w, "missing stream or source", http.StatusBadRequest)
		return
	}
	v, _ := s.pulls.LoadOrStore(req.Stream, make(chan struct{}, 1))
	turn := v.(chan struct{})
	select {
	case turn <- struct{}{}:
		defer func() { <-turn }()
	case <-r.Context().Done():
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

// pullStream asks the source for the stream's replicas from this node's
// committed length on and adopts them index by index. The owner commits a
// stream in index order and adoption follows that order, so this node
// always holds a prefix of the owner's stream and the length is all the
// source needs. An index is adopted only once a later index or the
// trailer has arrived, so a body cut short adopts no partial segment. The
// source's lengths are not trusted: each body is read through a limit,
// and memory grows with the bytes received.
func (s *Server) pullStream(ctx context.Context, stream, source, key string) (int, error) {
	from := s.store.StreamSegments()[stream]
	src := &Client{BaseURL: source, APIKey: key}
	resp, err := src.send(ctx, http.MethodPost, "/v1/replicas", ReplicasRequest{Stream: stream, From: from})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	adopted, idx := 0, from
	var group []server.AdoptedReplica
	adopt := func() error {
		if len(group) == 0 {
			return nil
		}
		if err := s.store.AdoptSegment(stream, idx, group); err != nil {
			return fmt.Errorf("api: adopt %s/%d: %w", stream, idx, err)
		}
		adopted++
		group = nil
		return nil
	}
	for {
		head, err := br.ReadSlice('\n')
		switch {
		case errors.Is(err, io.EOF):
			return adopted, &StreamError{Truncated: true}
		case errors.Is(err, bufio.ErrBufferFull):
			return adopted, errors.New("api: replica header line too long")
		case err != nil:
			return adopted, err
		}
		var l ReplicaLine
		if err := json.Unmarshal(head, &l); err != nil {
			return adopted, fmt.Errorf("api: malformed replica header: %w", err)
		}
		switch {
		case l.Error != "":
			return adopted, &StreamError{Msg: l.Error}
		case l.Done:
			drain(br)
			return adopted, adopt()
		case l.Idx < idx || l.N < 0:
			return adopted, fmt.Errorf("api: replica header out of order or negative: idx %d after %d, n %d", l.Idx, idx, l.N)
		case l.Idx > idx:
			if err := adopt(); err != nil {
				return adopted, err
			}
			idx = l.Idx
		}
		b, err := io.ReadAll(io.LimitReader(br, int64(l.N)))
		if err != nil {
			return adopted, fmt.Errorf("api: replica %s/%d: %w", l.SF, l.Idx, err)
		}
		if len(b) != l.N {
			return adopted, &StreamError{Truncated: true}
		}
		rep := server.AdoptedReplica{SFKey: l.SF, Raw: l.Raw}
		if l.Raw {
			rep.Frames, err = segment.UnmarshalRawSegment(b)
		} else {
			rep.Enc, err = codec.Unmarshal(b)
		}
		if err != nil {
			return adopted, fmt.Errorf("api: replica %s/%d: %w", l.SF, l.Idx, err)
		}
		group = append(group, rep)
	}
}
