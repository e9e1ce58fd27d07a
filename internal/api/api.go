// Package api is the store's network surface: a stdlib net/http server
// exposing the full serving lifecycle — streamed NDJSON queries pinned to
// a snapshot, batch ingest, lifecycle passes (erode/demote/compact) and
// statistics — with the production hygiene a store "serving heavy traffic
// from millions of users" (ROADMAP) needs from day one:
//
//   - multi-tenant admission control: requests resolve to a tenant by API
//     key (keyless requests land on the "default" tenant, so single-tenant
//     deployments need no configuration) and are admitted through
//     internal/tenant's weighted-fair gate — per-tenant bounded queues
//     drained in proportion to each tenant's weight, so one hot tenant
//     saturating the server cannot starve the others, which the previous
//     global FIFO gate allowed. At most MaxInFlight requests execute on
//     the shared pool at once; a tenant overflowing its own queue or
//     exhausting its rate/byte quota is answered 429 with a load-derived
//     Retry-After;
//   - cancellation: every request's context threads through query
//     execution (Server.Query's contract), so a disconnected client stops
//     consuming the pool between per-segment batches;
//   - graceful drain: Shutdown stops accepting (503s are still counted),
//     lets in-flight requests finish (their snapshots release on return),
//     then cancels stragglers past the deadline;
//   - observability: per-endpoint request/rejection/abort/error/in-flight
//     and latency counters plus per-tenant trailing-60s windows in
//     /v1/stats, and a dependency-free Prometheus text exposition at
//     GET /metrics.
//
// Endpoints (all JSON; query responses are NDJSON):
//
//	POST /v1/query    run a cascade, results streamed chunk-by-chunk
//	POST /v1/ingest   append segments of a scene to a stream
//	GET  /v1/stats    store + API + per-tenant counters
//	GET  /v1/streams  known streams and live-pipeline state
//	POST /v1/erode    one erosion pass over every stream
//	POST /v1/demote   one fast→cold demotion pass
//	POST /v1/compact  compact every shard of both tiers
//	GET  /metrics     Prometheus text exposition (served during drain)
//	GET  /healthz     liveness (reports draining during shutdown)
//
// Peer endpoints (what follower replication drives):
//
//	POST /v1/replicas  a stream's replicas from an index on, from one pinned snapshot
//	POST /v1/pull      replicate a stream from a peer node
//
// Authentication: clients present an API key via the X-API-Key header (or
// Authorization: Bearer). Keys map to tenants through tenant.Registry;
// an unknown key is answered 401. No key at all selects the default
// tenant — exactly the pre-multi-tenant behavior.
package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/sub"
	"repro/internal/tenant"
	"repro/internal/vidsim"
)

// Limits are the admission-control and timeout knobs. The zero value
// selects working defaults.
type Limits struct {
	// MaxInFlight bounds admitted requests executing concurrently on the
	// shared pool (queries and ingests alike). Zero selects
	// 2×GOMAXPROCS; negative means 1.
	MaxInFlight int
	// MaxQueue bounds each tenant's requests waiting for an execution
	// slot; one more and that tenant is answered 429 (a tenant's quota
	// can override its own bound). Zero selects MaxInFlight; negative
	// means no waiting room (immediate 429 when saturated).
	MaxQueue int
	// Tenants resolves API keys to tenants and their quotas. Nil selects
	// a registry with just the unlimited "default" tenant — the
	// single-tenant deployment.
	Tenants *tenant.Registry
	// QueryTimeout caps each query server-side. Zero means no cap; a
	// request's timeout_ms can only tighten it.
	QueryTimeout time.Duration
	// MaxSubscriptions bounds concurrently active standing queries
	// (POST /v1/subscribe); overflow is answered 429. Subscriptions are
	// long-lived, so they are admitted against this dedicated budget, not
	// the per-request gate. Zero selects the hub default; negative
	// disables subscriptions.
	MaxSubscriptions int
}

func (l Limits) withDefaults() Limits {
	if l.MaxInFlight == 0 {
		l.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if l.MaxInFlight < 1 {
		l.MaxInFlight = 1
	}
	if l.MaxQueue == 0 {
		l.MaxQueue = l.MaxInFlight
	}
	if l.MaxQueue < 0 {
		l.MaxQueue = 0
	}
	return l
}

// Server serves one store over HTTP. Create with New, start with Start (or
// mount Handler yourself), stop with Shutdown. The underlying
// server.Server's lifecycle stays the caller's: Shutdown drains HTTP
// traffic; closing the store (which stops daemons and live streams) comes
// after.
type Server struct {
	*Shell
	store   *server.Server
	lim     Limits
	gate    *tenant.Gate
	tenants *tenant.Registry
	hub     *sub.Hub
	pulls   sync.Map // stream → its pull turn, a chan struct{} of one slot
}

// New wraps the store in an HTTP API server with the given limits.
func New(store *server.Server, lim Limits) *Server {
	s := &Server{
		Shell: NewShell("server"),
		store: store,
		lim:   lim.withDefaults(),
	}
	s.tenants = s.lim.Tenants
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry(nil, nil)
	}
	s.gate = tenant.NewGate(s.lim.MaxInFlight, s.lim.MaxQueue)
	s.hub = sub.NewHub(store, sub.HubOptions{MaxSubscriptions: s.lim.MaxSubscriptions})
	s.route("query", "POST /v1/query", s.handleQuery)
	s.route("ingest", "POST /v1/ingest", s.handleIngest)
	s.route("subscribe", "POST /v1/subscribe", s.handleSubscribe)
	s.route("unsubscribe", "POST /v1/unsubscribe", s.handleUnsubscribe)
	s.route("subs", "GET /v1/subs", s.handleSubs)
	s.route("stats", "GET /v1/stats", s.handleStats)
	s.route("streams", "GET /v1/streams", s.handleStreams)
	s.route("erode", "POST /v1/erode", s.handleErode)
	s.route("demote", "POST /v1/demote", s.handleDemote)
	s.route("compact", "POST /v1/compact", s.handleCompact)
	s.route("scrub", "POST /v1/scrub", s.handleScrub)
	s.route("replicas", "POST /v1/replicas", s.handleReplicas)
	s.route("pull", "POST /v1/pull", s.handlePull)
	s.route("metrics", "GET /metrics", s.handleMetrics)
	s.route("healthz", "GET /healthz", s.handleHealthz)
	return s
}

// admission is the per-request state the node's route wrapper shares with
// its handlers through the request context: the resolved tenant, and what
// the handler learns that the tenant's accounting needs.
type admission struct {
	tenant      *tenant.Tenant
	gateWait    time.Duration // admission-gate wait, for per-tenant wait stats
	ingestBytes int64         // segment bytes an ingest stored, charged like traffic
}

type admissionKey struct{}

func admissionFrom(ctx context.Context) *admission {
	return ctx.Value(admissionKey{}).(*admission)
}

// APIKey extracts the client's API key: the X-API-Key header, else an
// Authorization: Bearer token. Empty means the keyless default tenant. The
// cluster router uses it too, so it forwards exactly what a node would read.
func APIKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return k
	}
	if auth := r.Header.Get("Authorization"); auth != "" {
		if k, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return ""
}

// route mounts one endpoint on the shell behind API-key → tenant
// resolution (an unknown key is answered 401), and accounts the finished
// request against its tenant by the shell's own classification.
func (s *Server) route(name, pattern string, fn func(*Response, *http.Request)) {
	s.Route(name, pattern, func(w *Response, r *http.Request) {
		tn, err := s.tenants.Resolve(APIKey(r))
		if err != nil {
			http.Error(w, "unknown API key", http.StatusUnauthorized)
			return
		}
		ad := &admission{tenant: tn}
		t0 := time.Now()
		defer func() {
			tn.Observe(w.Outcome(r), time.Since(t0), ad.gateWait, w.Bytes())
			tn.ChargeBytes(w.Bytes() + ad.ingestBytes)
		}()
		fn(w, r.WithContext(context.WithValue(r.Context(), admissionKey{}, ad)))
	})
}

// Shutdown drains the server gracefully: new requests are refused (503,
// and the listener closes), standing subscriptions finish their in-flight
// push and close with a "draining" trailer, and in-flight requests —
// queries mid-stream included — run to completion and release their
// snapshots. If ctx expires first, the remaining requests' contexts are
// canceled, which Server.Query observes between segment batches, and the
// connections are closed. Safe to call once; the store itself is closed
// by the caller afterwards.
func (s *Server) Shutdown(ctx context.Context) error {
	// Subscriptions never return on their own, so the hub must close
	// before the drain: each subscribe handler sees its push channel
	// close, writes its trailer line, and returns.
	return s.Shell.Shutdown(ctx, s.hub.Close)
}

// reject answers the 429 with the load-derived hint the gate or quota
// computed for when to retry.
func (s *Server) reject(w http.ResponseWriter, hint time.Duration, msg string) {
	SetRetryAfter(w, hint)
	http.Error(w, msg, http.StatusTooManyRequests)
}

// SetRetryAfter sets the Retry-After header to hint in whole seconds,
// clamped to >= 1 — a sub-second hint would round to "Retry-After: 0" and
// clients would hammer the already-saturated server.
func SetRetryAfter(w http.ResponseWriter, hint time.Duration) {
	w.Header().Set("Retry-After", strconv.Itoa(max(int(hint.Round(time.Second)/time.Second), 1)))
}

// acquire admits one request: the tenant's rate/byte quotas first, then
// the weighted-fair gate. ctx bounds the gate wait (it may carry the
// query timeout, tighter than r.Context()). ok=false means the response
// is already written (429, or 503 for a server-side deadline); a
// vanished client gets nothing and is classified as an abort by the
// route wrapper.
func (s *Server) acquire(ctx context.Context, w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	ad := admissionFrom(r.Context())
	if allowed, retry := ad.tenant.AllowRequest(); !allowed {
		s.reject(w, retry, "tenant quota exhausted: rate or byte budget spent")
		return nil, false
	}
	release, wait, err := s.gate.Acquire(ctx, ad.tenant)
	ad.gateWait = wait
	switch rej := (*tenant.Rejection)(nil); {
	case err == nil:
		return release, true
	case errors.As(err, &rej):
		// The tenant's own queue overflowed. Body kept verbatim from the
		// single-tenant gate for existing clients.
		s.reject(w, rej.RetryAfter, "server saturated: in-flight and queue limits reached")
	case r.Context().Err() == nil:
		// A server-side deadline (query timeout) ended the wait while the
		// client is still connected: an error status, not an empty 200.
		http.Error(w, "timed out waiting for an execution slot", http.StatusServiceUnavailable)
	}
	return nil, false
}

// handleQuery streams one query as NDJSON. The request is admitted
// through the gate (429 on overflow), pinned to one snapshot for its
// whole life (the stream's length in it goes out as CommittedHeader), and
// executed chunk-by-chunk so results flow before the full span finishes
// decoding. Client disconnection or timeout cancels the execution between
// per-segment batches.
func (s *Server) handleQuery(w *Response, r *http.Request) {
	var req QueryRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cascade, names, err := query.ByName(req.Query)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	acc := req.Accuracy
	if acc == 0 {
		acc = query.DefaultAccuracy
	}

	ctx := r.Context()
	timeout := s.lim.QueryTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; timeout == 0 || d < timeout {
			timeout = d
		}
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	release, ok := s.acquire(ctx, w, r)
	if !ok {
		return
	}
	defer release()

	snap, err := s.store.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer snap.Release()
	committed := snap.Segments(req.Stream)
	w.Header().Set(CommittedHeader, strconv.Itoa(committed))

	t0 := time.Now()
	chunks, segments := 0, 0
	for lo, hi := range req.Spans(committed) {
		res, err := s.store.QueryAt(ctx, snap, req.Stream, cascade, names, acc, lo, hi)
		if err != nil {
			// Client-driven terminations (disconnect, timeout) are not
			// server errors.
			w.MidStreamErr = !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
			w.Line(QueryLine{Error: err.Error()})
			return
		}
		c := ChunkFromResult(lo, hi, res)
		if !w.Line(QueryLine{Chunk: &c}) {
			return
		}
		chunks++
		segments += hi - lo
	}
	w.Line(QueryLine{Done: &QuerySummary{
		Chunks:   chunks,
		Segments: segments,
		WallMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	}})
}

// handleIngest appends segments of a scene to a stream — the batch
// counterpart of a live pipeline, sharing the query gate so mixed
// query/ingest load is admitted against one in-flight budget.
func (s *Server) handleIngest(w *Response, r *http.Request) {
	var req IngestRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	if req.Stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	if req.Segments <= 0 {
		http.Error(w, "segments must be positive", http.StatusBadRequest)
		return
	}
	sc, err := vidsim.DatasetByName(orDefault(req.Scene, req.Stream))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	release, ok := s.acquire(r.Context(), w, r)
	if !ok {
		return
	}
	defer release()
	t0 := time.Now()
	st, err := s.store.Ingest(sc, req.Stream, req.Segments)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := IngestResponse{
		Segments:   st.Segments,
		CPUSeconds: st.CPUSeconds,
		WallMs:     float64(time.Since(t0).Nanoseconds()) / 1e6,
	}
	for _, one := range st.PerSF {
		resp.Bytes += one.Bytes
	}
	// Stored segment bytes count against the tenant's byte quota just
	// like response traffic.
	admissionFrom(r.Context()).ingestBytes = resp.Bytes
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w *Response, r *http.Request) {
	resp := StatsResponse{
		Store:   s.store.Stats(),
		API:     s.Metrics(),
		Tenants: map[string]TenantStats{},
	}
	gateStats, _, _ := s.gate.Snapshot()
	for _, tn := range s.tenants.Tenants() {
		resp.Tenants[tn.Name()] = TenantStats{
			Weight: tn.Weight(),
			Window: tn.WindowStats(),
			Gate:   gateStats[tn.Name()],
		}
	}
	hs := s.hub.Stats()
	resp.Subs = &hs
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStreams(w *Response, r *http.Request) {
	live := s.store.LiveStreams()
	resp := StreamsResponse{Streams: map[string]StreamInfo{}}
	for name, n := range s.store.StreamSegments() {
		info := StreamInfo{Segments: n}
		if ls, ok := live[name]; ok {
			info.Live = true
			info.Submitted, info.Ingested, info.Failed, info.Queued =
				ls.Submitted, ls.Ingested, ls.Failed, ls.Queued
		}
		resp.Streams[name] = info
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleErode(w *Response, r *http.Request) {
	var req ErodeRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	n, err := s.store.ErodePass(server.AgeByToday(func() int { return req.Today }))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, ErodeResponse{Eroded: n})
}

func (s *Server) handleDemote(w *Response, r *http.Request) {
	var req ErodeRequest
	if !ReadJSON(w, r, &req) {
		return
	}
	n, err := s.store.DemotePass(server.AgeByToday(func() int { return req.Today }))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, DemoteResponse{Demoted: n})
}

func (s *Server) handleCompact(w *Response, r *http.Request) {
	if err := s.store.Compact(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, CompactResponse{OK: true})
}

// handleScrub runs one self-healing scrub pass: every record checksum
// verified, the manifest cross-checked for lost replicas, damage re-derived
// from fallback ancestors. The pass runs even when some replicas cannot be
// healed — the response reports them — so only the verification walk itself
// failing is a 500.
func (s *Server) handleScrub(w *Response, r *http.Request) {
	rep, err := s.store.ScrubPass()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	resp := ScrubResponse{
		Scanned:  rep.Scanned,
		Corrupt:  len(rep.Corrupt),
		Lost:     len(rep.Lost),
		Repaired: len(rep.Repaired),
		Skipped:  len(rep.Skipped),
	}
	for _, f := range rep.Failed {
		resp.Failed = append(resp.Failed, fmt.Sprintf("%s/%s/%d: %v", f.Ref.Stream, f.Ref.SFKey, f.Ref.Idx, f.Err))
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w *Response, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{
		OK:       true,
		Draining: s.Draining(),
		Degraded: s.store.Degraded(),
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
