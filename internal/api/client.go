package api

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/sub"
)

// Client is the Go client of the HTTP API — what the router, the
// benchmark and the tests drive. The zero HTTP client has no global timeout:
// streamed queries run as long as the server allows; bound them with the
// context (or QueryRequest.TimeoutMs).
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// APIKey, when set, is sent as X-API-Key with every request and
	// selects the tenant the server accounts this client against. Empty
	// means the keyless default tenant.
	APIKey string
	// HTTP is the underlying client; nil selects a default with no
	// timeout (streaming responses outlive any fixed one).
	HTTP *http.Client
}

// NewClient returns a client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, HTTP: &http.Client{}}
}

// authorize stamps the client's API key on one outbound request.
func (c *Client) authorize(req *http.Request) {
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// StatusError is a non-2xx response. Callers distinguish admission
// rejections via Code == http.StatusTooManyRequests and back off by
// RetryAfter.
type StatusError struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("api: HTTP %d: %s", e.Code, e.Msg)
}

// IsRejected reports whether err is the admission controller's 429.
func IsRejected(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusTooManyRequests
}

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

// StreamError is an NDJSON stream that ended abnormally after the 200
// header: either the server reported an in-band error line (Msg) or the
// connection ended before the summary trailer (Truncated) — a killed
// server, a dropped proxy, a partially-written response. Callers that
// count hard errors must treat both as failures; before this
// type existed a truncated stream was indistinguishable from other
// failures and an in-band error could not be told apart from transport
// errors.
type StreamError struct {
	Msg       string // the server's in-band error line ("" when truncated)
	Truncated bool   // the stream ended without its summary trailer
}

func (e *StreamError) Error() string {
	if e.Truncated {
		return "api: stream truncated before its summary trailer"
	}
	return fmt.Sprintf("api: stream failed: %s", e.Msg)
}

// IsTruncated reports whether err is a stream that ended without its
// summary trailer.
func IsTruncated(err error) bool {
	var se *StreamError
	return errors.As(err, &se) && se.Truncated
}

// IsStreamError reports whether err is an abnormal stream end (in-band
// server error or truncation), as opposed to a transport or status error.
func IsStreamError(err error) bool {
	var se *StreamError
	return errors.As(err, &se)
}

func statusError(resp *http.Response) *StatusError {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	se := &StatusError{Code: resp.StatusCode, Msg: string(bytes.TrimSpace(body))}
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return se
}

// drain reads what is left of a finished body, up to a bound, so that the
// transport sees its end and keeps the connection for the next request;
// closed unread, the connection is dropped and the next request dials.
func drain(body io.Reader) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 64<<10))
}

// send issues one request, in (nil: none) as its JSON body, and returns the
// 200 response for the caller to read and close; any other status is a
// *StatusError.
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	c.authorize(req)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		defer drain(resp.Body)
		return nil, statusError(resp)
	}
	return resp, nil
}

// do issues one JSON request; out nil skips decoding the response body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	defer drain(resp.Body)
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Stream runs one NDJSON request: every non-empty line of the response,
// trimmed of surrounding whitespace, goes to fn, which ends the stream by
// returning last (the trailer or an in-band error line) or an error; fn
// must not keep line past its return. Past the trailer the body is drained
// for the connection's sake; past an error line it is not, since a failed
// stream owes no clean end. A body that ends or is cut before its last
// line is truncated, and fn never sees a line its newline did not end.
// Any other status than 200 is a *StatusError.
func (c *Client) Stream(ctx context.Context, path string, in any, fn func(line []byte) (last bool, err error)) error {
	return c.stream(ctx, path, in, nil, fn)
}

// stream is Stream with head, when not nil, shown the 200 response's
// header before any line; an error from it ends the stream unread.
func (c *Client) stream(ctx context.Context, path string, in any, head func(http.Header) error, fn func(line []byte) (last bool, err error)) error {
	resp, err := c.send(ctx, http.MethodPost, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if head != nil {
		if err := head(resp.Header); err != nil {
			return err
		}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20) // detection lists can be long
	sc.Split(scanTerminatedLines)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		last, err := fn(line)
		if last && err == nil {
			drain(resp.Body)
		}
		if last || err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, io.ErrUnexpectedEOF) {
		return err
	}
	return &StreamError{Truncated: true}
}

// scanTerminatedLines splits newline-terminated lines, like
// bufio.ScanLines, but yields no unterminated remainder at the end: a body
// cut mid-line would hand on the torn half as a whole line.
func scanTerminatedLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	return 0, nil, nil
}

// QueryLines runs one query, invoking fn with every chunk line exactly as
// the server wrote it, unread — what a relay passes on. The summary trailer
// and an in-band error line are read here and end the stream as they do
// in QueryStream. fn must not keep line past its return. committed, when
// not nil, is first handed the node's CommittedHeader; an error from it
// ends the query before its first line.
func (c *Client) QueryLines(ctx context.Context, req QueryRequest, committed func(n int) error, fn func(line []byte) error) (QuerySummary, error) {
	var head func(http.Header) error
	if committed != nil {
		head = func(h http.Header) error {
			n, err := strconv.Atoi(h.Get(CommittedHeader))
			if err != nil {
				return fmt.Errorf("api: query answered without %s: %w", CommittedHeader, err)
			}
			return committed(n)
		}
	}
	var sum QuerySummary
	err := c.stream(ctx, "/v1/query", req, head, func(line []byte) (bool, error) {
		if isChunkLine(line) {
			return false, fn(line)
		}
		ql, err := parseQueryLine(line)
		switch {
		case err != nil:
			return false, fmt.Errorf("api: malformed response line: %w", err)
		case ql.Error != "":
			return true, &StreamError{Msg: ql.Error}
		case ql.Chunk != nil:
			return false, fn(line)
		case ql.Done != nil:
			sum = *ql.Done
			return true, nil
		}
		return false, nil
	})
	return sum, err
}

// QueryStream runs one query, invoking fn for every chunk as it arrives
// off the wire — results flow while later segments are still decoding
// server-side. It returns the summary trailer on success.
func (c *Client) QueryStream(ctx context.Context, req QueryRequest, fn func(QueryChunk) error) (QuerySummary, error) {
	return c.QueryLines(ctx, req, nil, func(line []byte) error {
		ql, err := parseQueryLine(line)
		switch {
		case err != nil:
			return fmt.Errorf("api: malformed response line: %w", err)
		case fn != nil && ql.Chunk != nil:
			return fn(*ql.Chunk)
		}
		return nil
	})
}

// Query runs one query and collects every chunk.
func (c *Client) Query(ctx context.Context, req QueryRequest) ([]QueryChunk, QuerySummary, error) {
	var chunks []QueryChunk
	sum, err := c.QueryStream(ctx, req, func(ch QueryChunk) error {
		chunks = append(chunks, ch)
		return nil
	})
	return chunks, sum, err
}

// SubEvent is one parsed line of a subscription stream: exactly one of
// Ack, Chunk, or Alert is set. Chunk and Alert events carry the commit
// Seq; chunk events also carry the cumulative Dropped count.
type SubEvent struct {
	Ack     *SubAck
	Seq     int64
	Dropped int64
	Chunk   *QueryChunk
	Alert   *sub.Alert
}

// Subscribe registers a standing query and invokes fn for every pushed
// line — the ack first, then one chunk per committed segment (plus any
// rule alerts) — until the subscription ends. A clean end (unsubscribe,
// server drain) returns the summary trailer; an abnormal end (lag
// disconnect, evaluation failure, truncation) returns a *StreamError.
// Cancel ctx to drop the subscription client-side.
func (c *Client) Subscribe(ctx context.Context, req SubscribeRequest, fn func(SubEvent) error) (SubSummary, error) {
	var sum SubSummary
	err := c.Stream(ctx, "/v1/subscribe", req, func(line []byte) (bool, error) {
		var sl SubLine
		err := json.Unmarshal(line, &sl)
		switch {
		case err != nil:
			return false, fmt.Errorf("api: malformed subscription line: %w", err)
		case sl.Error != "":
			return true, &StreamError{Msg: sl.Error}
		case sl.Done != nil:
			sum = *sl.Done
			return true, nil
		case fn != nil:
			return false, fn(SubEvent{Ack: sl.Ack, Seq: sl.Seq, Dropped: sl.Dropped, Chunk: sl.Chunk, Alert: sl.Alert})
		}
		return false, nil
	})
	return sum, err
}

// Unsubscribe ends a subscription by ID, reporting whether it was live.
func (c *Client) Unsubscribe(ctx context.Context, id string) (bool, error) {
	var resp UnsubscribeResponse
	err := c.do(ctx, http.MethodPost, "/v1/unsubscribe", UnsubscribeRequest{ID: id}, &resp)
	return resp.Found, err
}

// Subs lists the live subscriptions with their counters.
func (c *Client) Subs(ctx context.Context) (SubsResponse, error) {
	var resp SubsResponse
	err := c.do(ctx, http.MethodGet, "/v1/subs", nil, &resp)
	return resp, err
}

// Ingest appends segments of a scene to a stream.
func (c *Client) Ingest(ctx context.Context, req IngestRequest) (IngestResponse, error) {
	var resp IngestResponse
	err := c.do(ctx, http.MethodPost, "/v1/ingest", req, &resp)
	return resp, err
}

// Pull asks the server to replicate a stream from a peer node onto
// itself.
func (c *Client) Pull(ctx context.Context, req PullRequest) (PullResponse, error) {
	var resp PullResponse
	err := c.do(ctx, http.MethodPost, "/v1/pull", req, &resp)
	return resp, err
}

// Stats fetches the store and API counters.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &resp)
	return resp, err
}

// Streams fetches every known stream's serving state.
func (c *Client) Streams(ctx context.Context) (map[string]StreamInfo, error) {
	var resp StreamsResponse
	err := c.do(ctx, http.MethodGet, "/v1/streams", nil, &resp)
	return resp.Streams, err
}

// Erode runs one erosion pass at the given day index.
func (c *Client) Erode(ctx context.Context, today int) (int, error) {
	var resp ErodeResponse
	err := c.do(ctx, http.MethodPost, "/v1/erode", ErodeRequest{Today: today}, &resp)
	return resp.Eroded, err
}

// Demote runs one fast→cold demotion pass at the given day index.
func (c *Client) Demote(ctx context.Context, today int) (int, error) {
	var resp DemoteResponse
	err := c.do(ctx, http.MethodPost, "/v1/demote", ErodeRequest{Today: today}, &resp)
	return resp.Demoted, err
}

// Compact compacts every shard of both tiers.
func (c *Client) Compact(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/compact", struct{}{}, nil)
}

// Scrub runs one self-healing scrub pass: checksum verification over the
// whole store plus re-derivation of damaged replicas.
func (c *Client) Scrub(ctx context.Context) (ScrubResponse, error) {
	var resp ScrubResponse
	err := c.do(ctx, http.MethodPost, "/v1/scrub", struct{}{}, &resp)
	return resp, err
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) (HealthResponse, error) {
	var resp HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp)
	return resp, err
}
