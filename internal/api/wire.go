// Wire types of the HTTP API: the JSON bodies both the server handlers
// and the Go client marshal. The query response is NDJSON — one QueryLine
// per line — so a long span starts flowing before it finishes decoding.

package api

import (
	"errors"
	"iter"

	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/tenant"
)

// QueryRequest is the body of POST /v1/query.
type QueryRequest struct {
	Stream string `json:"stream"`
	// Query names the cascade: "A" (Diff+S-NN+NN) or "B"
	// (Motion+License+OCR). Empty selects "A".
	Query string `json:"query,omitempty"`
	// Accuracy is the target operator accuracy; zero selects 0.9.
	Accuracy float64 `json:"accuracy,omitempty"`
	From     int     `json:"from"`
	// To is one past the last segment; zero selects the snapshot's full
	// committed range at admission time.
	To int `json:"to,omitempty"`
	// Chunk is how many segments each NDJSON line covers. Zero runs the
	// whole range as one chunk — the exact in-process Server.Query
	// execution, byte-identical results guaranteed. A positive chunk
	// streams incrementally: each chunk is executed independently against
	// the request's one pinned snapshot (stateful first-stage operators
	// reset at chunk boundaries, exactly as the in-process path resets
	// them at configuration-epoch boundaries).
	Chunk int `json:"chunk,omitempty"`
	// TimeoutMs bounds the query server-side; zero defers to the server's
	// configured default. The smaller of the two wins.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// CommittedHeader carries, on a node's 200 answer to POST /v1/query, the
// stream's committed length in the snapshot the query pinned: what To = 0
// resolves to, sent before the first line.
const CommittedHeader = "X-Vstore-Committed"

// Validate reports what makes the request unanswerable, as the 400 body a
// node and the router both send.
func (q QueryRequest) Validate() error {
	switch {
	case q.Stream == "":
		return errors.New("missing stream")
	case q.From < 0 || (q.To != 0 && q.To < q.From) || q.Chunk < 0:
		return errors.New("invalid segment range")
	case q.Accuracy < 0 || q.Accuracy > 1:
		// Meaningless to the optimizer; it used to slip through and skew
		// cascade selection silently.
		return errors.New("accuracy must be within [0, 1]")
	}
	return nil
}

// Spans yields the chunks [lo, hi) a validated request executes, in
// order: [From, To) cut every Chunk segments, To zero meaning committed
// (the stream's length in the pinned snapshot) and From clamped to it.
func (q QueryRequest) Spans(committed int) iter.Seq2[int, int] {
	from, to := q.From, q.To
	if to == 0 {
		to = committed
	}
	from = min(from, to)
	step := q.Chunk
	if step <= 0 {
		step = to - from
	}
	return func(yield func(lo, hi int) bool) {
		for lo := from; lo < to; {
			hi := to
			if step < to-lo { // not lo+step < to: that sum can overflow
				hi = lo + step
			}
			if !yield(lo, hi) {
				return
			}
			lo = hi
		}
	}
}

// Detection is one operator detection on the wire.
type Detection struct {
	PTS   int     `json:"pts"`
	Label string  `json:"label"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
}

// QueryChunk is one executed chunk of a streamed query: segments
// [Seg0, Seg1) of the pinned snapshot.
type QueryChunk struct {
	Seg0           int         `json:"seg0"`
	Seg1           int         `json:"seg1"`
	Detections     []Detection `json:"detections"`
	FinalPTS       []int       `json:"final_pts"`
	VideoSeconds   float64     `json:"video_seconds"`
	VirtualSeconds float64     `json:"virtual_seconds"`
	Speed          float64     `json:"speed"`
}

// QuerySummary is the trailer line closing a successful query stream.
type QuerySummary struct {
	Chunks   int     `json:"chunks"`
	Segments int     `json:"segments"` // segments covered: to - from
	WallMs   float64 `json:"wall_ms"`
}

// QueryLine is one NDJSON line of a query response: exactly one field is
// set — a chunk, the final summary, or a mid-stream error (errors after
// the 200 header cannot change the status code, so they travel in-band).
type QueryLine struct {
	Chunk *QueryChunk   `json:"chunk,omitempty"`
	Done  *QuerySummary `json:"done,omitempty"`
	Error string        `json:"error,omitempty"`
}

// ChunkFromResult flattens an in-process QueryResult into the wire chunk
// covering [seg0, seg1) — per-epoch spans merged in order. Tests and the
// benchmark reuse it to prove the over-HTTP results byte-identical to the
// in-process path.
func ChunkFromResult(seg0, seg1 int, res server.QueryResult) QueryChunk {
	c := QueryChunk{Seg0: seg0, Seg1: seg1, Detections: []Detection{}, FinalPTS: []int{}}
	for _, r := range res.Results {
		for _, d := range r.Detections {
			c.Detections = append(c.Detections, Detection{PTS: d.PTS, Label: d.Label, X: d.X, Y: d.Y})
		}
		c.FinalPTS = append(c.FinalPTS, r.FinalPTS...)
		c.VideoSeconds += r.VideoSeconds
		c.VirtualSeconds += r.VirtualSeconds
	}
	c.Speed = res.Speed()
	return c
}

// ReplicasRequest is the body of POST /v1/replicas: stream the stream's
// committed replicas with index From or later. A follower's pull sends its
// own committed length as From.
type ReplicasRequest struct {
	Stream string `json:"stream"`
	From   int    `json:"from"`
}

// ReplicaLine is one header line of a POST /v1/replicas body. A replica's
// line names it — format key, raw or encoded, segment index — and N raw
// bytes follow the line: the codec container of an encoded replica, the
// raw-segment framing of a raw one. Replicas come in (index, format key)
// order, and a line with Done set, or an in-band Error, ends the body.
type ReplicaLine struct {
	SF    string `json:"sf,omitempty"`
	Raw   bool   `json:"raw,omitempty"`
	Idx   int    `json:"idx,omitempty"`
	N     int    `json:"n,omitempty"`
	Done  bool   `json:"done,omitempty"`
	Error string `json:"error,omitempty"`
}

// PullRequest is the body of POST /v1/pull: replicate the stream's
// committed segments from the peer node at Source onto this node. The pull
// is idempotent — it copies only the segments past this node's committed
// length — which is how the cluster layer re-runs replication safely.
type PullRequest struct {
	Stream string `json:"stream"`
	Source string `json:"source"`
}

// PullResponse reports how many segments the pull adopted.
type PullResponse struct {
	Segments int `json:"segments"`
}

// SubscribeRequest is the body of POST /v1/subscribe: register a standing
// query over one stream. The response is a long-lived chunked NDJSON
// stream of SubLine — an ack, then one chunk per committed segment.
type SubscribeRequest struct {
	Stream string `json:"stream"`
	// Query names the cascade, exactly as in QueryRequest.
	Query string `json:"query,omitempty"`
	// Accuracy is the target operator accuracy; zero selects 0.9.
	Accuracy float64 `json:"accuracy,omitempty"`
	// Buffer is the pending-commit queue depth decoupling this subscriber
	// from ingest; zero selects the hub default.
	Buffer int `json:"buffer,omitempty"`
	// Policy is the slow-consumer policy: "disconnect" (default — the
	// stream ends with an in-band error once the buffer overflows, so
	// what is delivered is always gap-free) or "drop" (overflowing
	// segments are skipped and counted; see SubLine.Dropped).
	Policy string `json:"policy,omitempty"`
	// Rules are optional alert predicates evaluated on every pushed chunk.
	Rules []RuleSpec `json:"rules,omitempty"`
}

// RuleSpec is one alert predicate: fire when detections matching Label
// across the last WindowSegments chunks reach MinCount; deliver to
// Webhook (buffered, bounded retry) when set.
type RuleSpec = sub.Rule

// SubAck is the first line of a subscription stream.
type SubAck struct {
	ID     string `json:"id"`
	Stream string `json:"stream"`
}

// SubSummary is the trailer line of a cleanly ended subscription stream.
type SubSummary struct {
	Delivered int64 `json:"delivered"`
	Dropped   int64 `json:"dropped"`
	// Reason is why the stream ended: "unsubscribed" or "draining".
	// Abnormal ends (lag disconnect, evaluation failure) travel as an
	// in-band Error line instead.
	Reason string `json:"reason,omitempty"`
}

// SubLine is one NDJSON line of a subscription stream. Chunk lines carry
// Seq (the store's commit sequence, strictly increasing) and the
// cumulative Dropped count; the embedded chunk itself is byte-identical
// to the same span's chunk from a historical POST /v1/query.
type SubLine struct {
	Ack     *SubAck     `json:"ack,omitempty"`
	Seq     int64       `json:"seq,omitempty"`
	Dropped int64       `json:"dropped,omitempty"`
	Chunk   *QueryChunk `json:"chunk,omitempty"`
	Alert   *sub.Alert  `json:"alert,omitempty"`
	Done    *SubSummary `json:"done,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// UnsubscribeRequest is the body of POST /v1/unsubscribe.
type UnsubscribeRequest struct {
	ID string `json:"id"`
}

// UnsubscribeResponse reports whether the subscription was live.
type UnsubscribeResponse struct {
	Found bool `json:"found"`
}

// SubsResponse is the body of GET /v1/subs: every live subscription's
// counters.
type SubsResponse struct {
	Active int         `json:"active"`
	Subs   []sub.Stats `json:"subs"`
}

// IngestRequest is the body of POST /v1/ingest: append Segments segments
// of the named scene to the stream (scene empty = the stream's name).
type IngestRequest struct {
	Stream   string `json:"stream"`
	Scene    string `json:"scene,omitempty"`
	Segments int    `json:"segments"`
}

// IngestResponse reports one batch ingest.
type IngestResponse struct {
	Segments   int     `json:"segments"`
	Bytes      int64   `json:"bytes"`
	CPUSeconds float64 `json:"cpu_seconds"`
	WallMs     float64 `json:"wall_ms"`
}

// ErodeRequest is the body of POST /v1/erode and /v1/demote: Today is the
// current day index driving the age function (segment age = today -
// segment's day).
type ErodeRequest struct {
	Today int `json:"today"`
}

// ErodeResponse reports one erosion pass.
type ErodeResponse struct {
	Eroded int `json:"eroded"`
}

// DemoteResponse reports one demotion pass.
type DemoteResponse struct {
	Demoted int `json:"demoted"`
}

// CompactResponse reports a compaction.
type CompactResponse struct {
	OK bool `json:"ok"`
}

// ScrubResponse reports one self-healing scrub pass (POST /v1/scrub): how
// many committed replicas were cross-checked, what damage was found, and
// what the pass did about it. Failed lists the replicas no surviving
// fallback ancestor could rebuild — the store stays degraded (see
// /healthz) until they are healed or eroded.
type ScrubResponse struct {
	Scanned  int      `json:"scanned"`
	Corrupt  int      `json:"corrupt"`
	Lost     int      `json:"lost"`
	Repaired int      `json:"repaired"`
	Skipped  int      `json:"skipped,omitempty"`
	Failed   []string `json:"failed,omitempty"`
}

// EndpointStats is one endpoint's admission and latency counters.
// Requests counts every arrival, drain-time 503s and unknown-key 401s
// included; AvgMs/MaxMs cover only answered requests (client aborts are
// counted apart and excluded, so a pile of slow disconnects cannot drag
// the latency summary).
type EndpointStats struct {
	Requests     int64   `json:"requests"`
	Rejections   int64   `json:"rejections"`              // 429s: fair-gate overflow or quota
	Errors       int64   `json:"errors"`                  // 5xx responses and mid-stream failures
	Unauthorized int64   `json:"unauthorized,omitempty"`  // 401s: unknown API key
	Unavailable  int64   `json:"unavailable,omitempty"`   // 503s answered while draining
	ClientAborts int64   `json:"client_aborts,omitempty"` // client vanished before a response
	InFlight     int64   `json:"in_flight"`
	AvgMs        float64 `json:"avg_ms"`
	MaxMs        float64 `json:"max_ms"`
}

// TenantStats is one tenant's /v1/stats entry: its fair-share weight, the
// trailing-60s traffic window, and its live admission-gate state.
type TenantStats struct {
	Weight int                    `json:"weight"`
	Window tenant.WindowStats     `json:"window"`
	Gate   tenant.GateTenantStats `json:"gate"`
}

// StatsResponse is the body of GET /v1/stats: the store's counters, the
// API layer's per-endpoint admission/latency counters, per-tenant
// windowed traffic, and the standing-query hub's per-subscription
// counters.
type StatsResponse struct {
	Store   server.Stats             `json:"store"`
	API     map[string]EndpointStats `json:"api"`
	Tenants map[string]TenantStats   `json:"tenants,omitempty"`
	Subs    *sub.HubStats            `json:"subs,omitempty"`
}

// StreamInfo is one stream's serving state.
type StreamInfo struct {
	Segments  int   `json:"segments"`
	Live      bool  `json:"live"` // a streaming-ingest pipeline is running
	Submitted int64 `json:"submitted,omitempty"`
	Ingested  int64 `json:"ingested,omitempty"`
	Failed    int64 `json:"failed,omitempty"`
	Queued    int   `json:"queued,omitempty"`
}

// StreamsResponse is the body of GET /v1/streams.
type StreamsResponse struct {
	Streams map[string]StreamInfo `json:"streams"`
}

// HealthResponse is the body of GET /healthz. Degraded means damaged
// replicas are awaiting repair or the last scrub could not heal everything:
// queries still answer (via fallback reconstruction) but redundancy is
// reduced, so orchestrators should surface it without killing the instance.
type HealthResponse struct {
	OK       bool `json:"ok"`
	Draining bool `json:"draining,omitempty"`
	Degraded bool `json:"degraded,omitempty"`
}
