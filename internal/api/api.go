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
// Peer endpoints (what follower replication and the cluster router
// drive; see internal/store for the snapshot leases behind them):
//
//	POST /v1/snapshot          pin a snapshot, returning a TTL lease
//	POST /v1/snapshot/release  release a snapshot lease
//	GET  /v1/refs              a leased snapshot's committed replicas
//	GET  /v1/segment           one replica's bytes through a lease
//	POST /v1/pull              replicate a stream from a peer node
//
// Authentication: clients present an API key via the X-API-Key header (or
// Authorization: Bearer). Keys map to tenants through tenant.Registry;
// an unknown key is answered 401. No key at all selects the default
// tenant — exactly the pre-multi-tenant behavior.
package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/query"
	"repro/internal/server"
	storepkg "repro/internal/store"
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
	// RetryAfter, when set, overrides the load-derived Retry-After hint
	// sent with 429 responses. Zero lets the gate derive the hint from
	// its measured slot-hold time and backlog.
	RetryAfter time.Duration
	// MaxSubscriptions bounds concurrently active standing queries
	// (POST /v1/subscribe); overflow is answered 429. Subscriptions are
	// long-lived, so they are admitted against this dedicated budget, not
	// the per-request gate. Zero selects the hub default; negative
	// disables subscriptions.
	MaxSubscriptions int
	// Webhook tunes rule-alert delivery (queue depth, retry budget,
	// backoff). The zero value selects the hub defaults.
	Webhook sub.WebhookOptions
	// SnapshotLeaseTTL bounds how long an untouched snapshot lease
	// (POST /v1/snapshot) pins its snapshot before expiring — the guard
	// against a remote peer pinning erosion's deletes forever. Zero
	// selects store.DefaultLeaseTTL.
	SnapshotLeaseTTL time.Duration
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

// endpointMetrics is one endpoint's counter set (see EndpointStats).
type endpointMetrics struct {
	requests     atomic.Int64
	rejections   atomic.Int64
	errors       atomic.Int64
	unauthorized atomic.Int64
	unavailable  atomic.Int64
	clientAborts atomic.Int64
	inFlight     atomic.Int64
	observed     atomic.Int64 // requests included in the latency sums
	latencyNs    atomic.Int64
	maxNs        atomic.Int64
}

func (m *endpointMetrics) observe(d time.Duration) {
	ns := d.Nanoseconds()
	m.observed.Add(1)
	m.latencyNs.Add(ns)
	for {
		cur := m.maxNs.Load()
		if ns <= cur || m.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (m *endpointMetrics) stats() EndpointStats {
	st := EndpointStats{
		Requests:     m.requests.Load(),
		Rejections:   m.rejections.Load(),
		Errors:       m.errors.Load(),
		Unauthorized: m.unauthorized.Load(),
		Unavailable:  m.unavailable.Load(),
		ClientAborts: m.clientAborts.Load(),
		InFlight:     m.inFlight.Load(),
		MaxMs:        float64(m.maxNs.Load()) / 1e6,
	}
	if n := m.observed.Load(); n > 0 {
		st.AvgMs = float64(m.latencyNs.Load()) / float64(n) / 1e6
	}
	return st
}

// Server serves one store over HTTP. Create with New, start with Start (or
// mount Handler yourself), stop with Shutdown. The underlying
// server.Server's lifecycle stays the caller's: Shutdown drains HTTP
// traffic; closing the store (which stops daemons and live streams) comes
// after.
type Server struct {
	store   *server.Server
	lim     Limits
	gate    *tenant.Gate
	tenants *tenant.Registry
	// retryAfterSet: the operator pinned Limits.RetryAfter, which then
	// overrides the gate's load-derived hint on every 429.
	retryAfterSet bool
	hub           *sub.Hub
	leases        *storepkg.Leases
	mux           *http.ServeMux
	metrics       map[string]*endpointMetrics

	baseCtx    context.Context
	cancelBase context.CancelFunc
	draining   atomic.Bool

	httpSrv  *http.Server
	lis      net.Listener
	serveErr chan error
}

// New wraps the store in an HTTP API server with the given limits.
func New(store *server.Server, lim Limits) *Server {
	s := &Server{
		store:         store,
		lim:           lim.withDefaults(),
		retryAfterSet: lim.RetryAfter > 0,
		mux:           http.NewServeMux(),
		metrics:       map[string]*endpointMetrics{},
	}
	s.tenants = s.lim.Tenants
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry(nil, nil)
	}
	s.gate = tenant.NewGate(s.lim.MaxInFlight, s.lim.MaxQueue)
	s.hub = sub.NewHub(store, sub.HubOptions{
		MaxSubscriptions: s.lim.MaxSubscriptions,
		Webhook:          s.lim.Webhook,
	})
	s.leases = storepkg.NewLeases(s.lim.SnapshotLeaseTTL)
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
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
	s.route("snapshot", "POST /v1/snapshot", s.handleSnapshot)
	s.route("snapshot_release", "POST /v1/snapshot/release", s.handleSnapshotRelease)
	s.route("refs", "GET /v1/refs", s.handleRefs)
	s.route("segment", "GET /v1/segment", s.handleSegment)
	s.route("pull", "POST /v1/pull", s.handlePull)
	s.route("metrics", "GET /metrics", s.handleMetrics)
	s.route("healthz", "GET /healthz", s.handleHealthz)
	return s
}

// tenantKey carries the request's resolved *tenant.Tenant in its context.
type tenantKey struct{}

func tenantFrom(ctx context.Context) *tenant.Tenant {
	t, _ := ctx.Value(tenantKey{}).(*tenant.Tenant)
	return t
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

// route mounts one instrumented endpoint: request/in-flight/latency
// accounting, the 503 drain gate, API-key → tenant resolution, and
// outcome classification by status code. Every arrival is counted —
// drain-time 503s included, which the pre-multi-tenant wrapper silently
// dropped by returning before the request counter.
func (s *Server) route(name, pattern string, fn http.HandlerFunc) {
	m := &endpointMetrics{}
	s.metrics[name] = m
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		m.requests.Add(1)
		// healthz must answer during drain (it reports the drain) and
		// metrics must stay scrapable while the server winds down.
		if s.draining.Load() && name != "healthz" && name != "metrics" {
			m.unavailable.Add(1)
			// A drain is transient — the replacement instance (or the
			// restarted one) is seconds away — so the 503 carries the same
			// backoff hint a 429 does instead of leaving clients to guess.
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server draining", http.StatusServiceUnavailable)
			return
		}
		tn, err := s.tenants.Resolve(APIKey(r))
		if err != nil {
			m.unauthorized.Add(1)
			http.Error(w, "unknown API key", http.StatusUnauthorized)
			return
		}
		m.inFlight.Add(1)
		t0 := time.Now()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		// Deferred, not sequential: a panicking handler (recovered by
		// net/http per connection) must not leak an in-flight count or
		// skip its accounting.
		defer func() {
			m.inFlight.Add(-1)
			d := time.Since(t0)
			switch {
			case cw.status == http.StatusTooManyRequests:
				m.rejections.Add(1)
				tn.Observe(tenant.OutcomeRejected, d, 0, cw.bytes)
			case !cw.wrote && r.Context().Err() != nil:
				// The handler wrote nothing and the request context is
				// dead: the client vanished (mid-body, or while parked in
				// the admission gate). Not a 200, not an error — counted
				// apart and excluded from the latency summaries, which
				// a pile of slow aborts used to drag around.
				m.clientAborts.Add(1)
				tn.Observe(tenant.OutcomeAborted, d, cw.gateWait, cw.bytes)
			case cw.status >= 500 || cw.midStreamErr:
				m.errors.Add(1)
				m.observe(d)
				tn.Observe(tenant.OutcomeError, d, cw.gateWait, cw.bytes)
			default:
				m.observe(d)
				tn.Observe(tenant.OutcomeOK, d, cw.gateWait, cw.bytes)
			}
			tn.ChargeBytes(cw.bytes + cw.ingestBytes)
		}()
		fn(cw, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tn)))
	})
}

// countingWriter captures the response status, whether anything was
// written at all (distinguishing client aborts from empty 200s), the
// response byte count for tenant byte quotas, and mid-stream query
// failures, which arrive after the 200 header.
type countingWriter struct {
	http.ResponseWriter
	status       int
	wrote        bool
	bytes        int64
	ingestBytes  int64         // segment bytes an ingest stored, charged like traffic
	gateWait     time.Duration // admission-gate wait, for per-tenant wait stats
	midStreamErr bool
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.wrote = true
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so NDJSON lines reach the
// client as they are produced.
func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the routed, instrumented handler — for mounting under a
// caller-owned http.Server or a test mux. Requests served this way do not
// observe Shutdown's context cancellation (they still observe the drain
// flag); prefer Start for the full lifecycle.
func (s *Server) Handler() http.Handler { return s.mux }

// Start listens on addr ("host:port"; ":0" picks a free port) and serves
// in the background until Shutdown. It returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.lis = lis
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		BaseContext:       func(net.Listener) context.Context { return s.baseCtx },
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.serveErr = make(chan error, 1)
	go func() { s.serveErr <- s.httpSrv.Serve(lis) }()
	return lis.Addr(), nil
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
	s.draining.Store(true)
	// Subscriptions never return on their own, so the hub must close
	// before httpSrv.Shutdown can drain: each subscribe handler sees its
	// push channel close, writes its trailer line, and returns.
	s.hub.Close()
	if s.httpSrv == nil {
		s.cancelBase()
		s.leases.ReleaseAll()
		return nil
	}
	err := s.httpSrv.Shutdown(ctx)
	// Cancel the base context either way: on clean drain every request
	// has returned and this is a no-op; on deadline it aborts stragglers
	// so their pool work stops promptly.
	s.cancelBase()
	if err != nil {
		_ = s.httpSrv.Close()
	}
	if serveErr := <-s.serveErr; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	// No remote pin outlives the server: whatever leases peers abandoned
	// release here, before the caller closes the store.
	s.leases.ReleaseAll()
	return err
}

// WriteJSON writes one JSON response body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// readJSON decodes the request body into v, answering 400 on malformed
// input. An empty body decodes to the zero value.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil && !errors.Is(err, io.EOF) {
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reject answers the 429, hinting when to retry: the operator-pinned
// Limits.RetryAfter when set, else the load-derived hint the gate or
// quota computed.
func (s *Server) reject(w http.ResponseWriter, hint time.Duration, msg string) {
	if s.retryAfterSet {
		hint = s.lim.RetryAfter
	}
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
	tn := tenantFrom(r.Context())
	if allowed, retry := tn.AllowRequest(); !allowed {
		s.reject(w, retry, "tenant quota exhausted: rate or byte budget spent")
		return nil, false
	}
	release, wait, err := s.gate.Acquire(ctx, tn)
	if cw, isCW := w.(*countingWriter); isCW {
		cw.gateWait = wait
	}
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
// whole life, and executed chunk-by-chunk so results flow before the full
// span finishes decoding. Client disconnection or timeout cancels the
// execution between per-segment batches.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req QueryRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	cascade, names, err := query.ByName(orDefault(req.Query, "A"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.From < 0 || (req.To != 0 && req.To < req.From) || req.Chunk < 0 {
		http.Error(w, "invalid segment range", http.StatusBadRequest)
		return
	}
	// A target accuracy outside [0, 1] is meaningless to the optimizer;
	// it used to slip through and skew cascade selection silently.
	if req.Accuracy < 0 || req.Accuracy > 1 {
		http.Error(w, "accuracy must be within [0, 1]", http.StatusBadRequest)
		return
	}
	acc := req.Accuracy
	if acc == 0 {
		acc = 0.9
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

	var snap *server.Snapshot
	if req.Snap != "" {
		// The query runs against a leased snapshot: same frozen view as
		// every other read through the lease, and the lease's owner — not
		// this request — releases the pin.
		leased, ok := s.leases.Get(req.Snap)
		if !ok {
			http.Error(w, "unknown snapshot lease", http.StatusNotFound)
			return
		}
		snap, ok = leased.(*server.Snapshot)
		if !ok {
			http.Error(w, "snapshot lease is not queryable here", http.StatusInternalServerError)
			return
		}
	} else {
		pinned, err := s.store.Snapshot()
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		defer pinned.Release()
		snap = pinned
	}
	from, to := req.From, req.To
	if to == 0 {
		to = snap.Segments(req.Stream)
	}
	if from > to {
		from = to
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	emit := func(line QueryLine) {
		_ = enc.Encode(line)
		flush()
	}

	step := req.Chunk
	if step <= 0 {
		step = to - from
	}
	t0 := time.Now()
	chunks := 0
	for lo := from; lo < to; lo += step {
		hi := min(lo+step, to)
		res, err := s.store.QueryAt(ctx, snap, req.Stream, cascade, names, acc, lo, hi)
		if err != nil {
			// Client-driven terminations (disconnect, timeout) are not
			// server errors.
			if cw, ok := w.(*countingWriter); ok &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
				cw.midStreamErr = true
			}
			emit(QueryLine{Error: err.Error()})
			return
		}
		c := ChunkFromResult(lo, hi, res)
		emit(QueryLine{Chunk: &c})
		chunks++
	}
	emit(QueryLine{Done: &QuerySummary{
		Chunks:   chunks,
		Segments: to - from,
		WallMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	}})
}

// handleIngest appends segments of a scene to a stream — the batch
// counterpart of a live pipeline, sharing the query gate so mixed
// query/ingest load is admitted against one in-flight budget.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !readJSON(w, r, &req) {
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
	if cw, isCW := w.(*countingWriter); isCW {
		cw.ingestBytes = resp.Bytes
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Store:   s.store.Stats(),
		API:     map[string]EndpointStats{},
		Tenants: map[string]TenantStats{},
	}
	for name, m := range s.metrics {
		resp.API[name] = m.stats()
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
	ls := s.leases.Stats()
	resp.Leases = &ls
	WriteJSON(w, http.StatusOK, resp)
}

// Metrics returns a snapshot of the per-endpoint counters, keyed by
// endpoint name — the counters /v1/stats serves, reachable even while
// the server drains (when /v1/stats itself answers 503).
func (s *Server) Metrics() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(s.metrics))
	for name, m := range s.metrics {
		out[name] = m.stats()
	}
	return out
}

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
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

func (s *Server) handleErode(w http.ResponseWriter, r *http.Request) {
	var req ErodeRequest
	if !readJSON(w, r, &req) {
		return
	}
	n, err := s.store.ErodePass(server.AgeByToday(func() int { return req.Today }))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, ErodeResponse{Eroded: n})
}

func (s *Server) handleDemote(w http.ResponseWriter, r *http.Request) {
	var req ErodeRequest
	if !readJSON(w, r, &req) {
		return
	}
	n, err := s.store.DemotePass(server.AgeByToday(func() int { return req.Today }))
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, DemoteResponse{Demoted: n})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
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
func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, HealthResponse{
		OK:       true,
		Draining: s.draining.Load(),
		Degraded: s.store.Degraded(),
	})
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
