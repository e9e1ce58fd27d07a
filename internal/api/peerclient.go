// Client methods for the peer endpoints: snapshot leases, replica
// enumeration and fetch, and replication pulls. These are what follower
// replication is built from.

package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/codec"
	"repro/internal/frame"
	"repro/internal/segment"
)

// IsUnavailable reports whether err is the server's 503 — a drain in
// progress (or a slot-wait deadline). Like a 429, it is transient: the
// request was refused, not failed, and a retry elsewhere (or after the
// Retry-After hint) is the right response.
func IsUnavailable(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusServiceUnavailable
}

// RetryAfterHint returns the server's backoff hint carried by err. Both
// admission rejections (429) and drain refusals (503) carry one; before
// the drain path gained its header, clients backed off properly on 429
// but hammered a draining server.
func RetryAfterHint(err error) (time.Duration, bool) {
	var se *StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 &&
		(se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable) {
		return se.RetryAfter, true
	}
	return 0, false
}

// PinSnapshot pins a snapshot server-side, returning its lease and every
// stream's committed length at the pin. The caller owns the lease:
// release it with ReleaseSnapshot, or let it idle past the server's TTL.
func (c *Client) PinSnapshot(ctx context.Context) (SnapshotResponse, error) {
	var resp SnapshotResponse
	err := c.do(ctx, http.MethodPost, "/v1/snapshot", struct{}{}, &resp)
	return resp, err
}

// ReleaseSnapshot releases a snapshot lease, reporting whether it was
// live.
func (c *Client) ReleaseSnapshot(ctx context.Context, id string) (bool, error) {
	var resp SnapshotReleaseResponse
	err := c.do(ctx, http.MethodPost, "/v1/snapshot/release", SnapshotReleaseRequest{ID: id}, &resp)
	return resp.Found, err
}

// Refs enumerates one stream's committed replicas in the leased snapshot,
// sorted by (format key, index); sf non-empty filters to one storage
// format.
func (c *Client) Refs(ctx context.Context, snapID, stream, sf string) ([]WireRef, error) {
	q := url.Values{"snap": {snapID}, "stream": {stream}}
	if sf != "" {
		q.Set("sf", sf)
	}
	var resp RefsResponse
	err := c.do(ctx, http.MethodGet, "/v1/refs?"+q.Encode(), nil, &resp)
	return resp.Refs, err
}

// getBytes fetches one binary response body. A 404 surfaces as
// segment.ErrNotFound — the same sentinel a local read returns for a
// replica outside the snapshot.
func (c *Client) getBytes(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.send(ctx, http.MethodGet, path, nil)
	if se := (*StatusError)(nil); errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil, fmt.Errorf("%s: %w", se.Msg, segment.ErrNotFound)
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func segmentPath(snapID, stream, sf string, raw bool, idx int) string {
	q := url.Values{
		"snap":   {snapID},
		"stream": {stream},
		"sf":     {sf},
		"idx":    {strconv.Itoa(idx)},
	}
	if raw {
		q.Set("raw", "true")
	}
	return "/v1/segment?" + q.Encode()
}

// SegmentEncoded fetches one encoded replica's container through a leased
// snapshot.
func (c *Client) SegmentEncoded(ctx context.Context, snapID, stream, sf string, idx int) (*codec.Encoded, error) {
	b, err := c.getBytes(ctx, segmentPath(snapID, stream, sf, false, idx))
	if err != nil {
		return nil, err
	}
	return codec.Unmarshal(b)
}

// SegmentRaw fetches one raw replica's frames through a leased snapshot.
func (c *Client) SegmentRaw(ctx context.Context, snapID, stream, sf string, idx int) ([]*frame.Frame, error) {
	b, err := c.getBytes(ctx, segmentPath(snapID, stream, sf, true, idx))
	if err != nil {
		return nil, err
	}
	return segment.UnmarshalRawSegment(b)
}

// Pull asks the server to replicate a stream from a peer node onto
// itself.
func (c *Client) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := c.do(ctx, http.MethodPost, "/v1/pull", req, &resp)
	return resp, err
}
