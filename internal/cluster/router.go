// The stateless router: one HTTP server fronting a static membership of
// vstore nodes. Reads resolve the stream to its owner through the
// consistent-hash placer, fan the requested range out in chunks over a
// bounded worker pool against one leased snapshot, and merge the chunk
// results back in segment order — so the response is byte-identical to
// the same query against a single node holding the data, at any worker
// count. When the owner is down the session fails over to the stream's
// replica followers (chunks are deterministic, so a re-run lands the
// same bytes) and counts the degraded route. Writes forward to the owner
// and fan replication pulls out to the followers in the background.

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/sched"
)

// Options configures a router.
type Options struct {
	// Nodes is the static membership; at least one node.
	Nodes []Node
	// Replicas is how many nodes serve each stream (the owner plus
	// Replicas-1 followers). Zero or one means no replication.
	Replicas int
	// Workers bounds how many chunks of one query execute concurrently.
	// Zero selects 4; the merge order is segment order at any setting.
	Workers int
}

// Router serves the cluster. Create with NewRouter, start with Start (or
// mount Handler), stop with Shutdown.
type Router struct {
	*api.Shell
	nodes    []Node
	placer   *Placer
	replicas int
	workers  int

	http *http.Client // shared transport to the nodes; no global timeout (streams)

	degradedRoutes  atomic.Int64
	replications    atomic.Int64
	replicationErrs atomic.Int64

	// drainCtx ends when Shutdown begins, aborting background replication
	// pulls and any straggling fan-out.
	drainCtx    context.Context
	cancelDrain context.CancelFunc
	background  sync.WaitGroup
}

// NewRouter builds a router over the membership.
func NewRouter(opts Options) (*Router, error) {
	placer, err := NewPlacer(opts.Nodes)
	if err != nil {
		return nil, err
	}
	r := &Router{
		Shell:    api.NewShell("router"),
		nodes:    append([]Node(nil), opts.Nodes...),
		placer:   placer,
		replicas: opts.Replicas,
		workers:  opts.Workers,
		http:     &http.Client{},
	}
	if r.replicas < 1 {
		r.replicas = 1
	}
	if r.workers <= 0 {
		r.workers = 4
	}
	r.drainCtx, r.cancelDrain = context.WithCancel(context.Background())
	r.Route("query", "POST /v1/query", r.handleQuery)
	r.Route("ingest", "POST /v1/ingest", r.handleIngest)
	r.Route("subscribe", "POST /v1/subscribe", r.handleSubscribe)
	r.Route("stats", "GET /v1/stats", r.handleStats)
	r.Route("streams", "GET /v1/streams", r.handleStreams)
	r.Route("cluster", "GET /v1/cluster", r.handleCluster)
	r.Route("metrics", "GET /metrics", r.handleMetrics)
	r.Route("healthz", "GET /healthz", r.handleHealthz)
	return r, nil
}

// clientFor builds the per-request client to one node, carrying the
// caller's API key through so the node accounts the work against the
// right tenant.
func (r *Router) clientFor(n Node, key string) *api.Client {
	return &api.Client{BaseURL: n.URL, APIKey: key, HTTP: r.http}
}

// Place exposes the router's placement — what GET /v1/cluster reports
// and what tests assert against.
func (r *Router) Place(stream string) []Node { return r.placer.Place(stream, r.replicas) }

// DegradedRoutes reports how many candidate nodes reads had to skip.
func (r *Router) DegradedRoutes() int64 { return r.degradedRoutes.Load() }

// writeStatusError forwards a node's status error verbatim — code,
// message, and Retry-After hint — so admission control at the nodes is
// visible through the router; anything else is a 502. A vanished client
// gets nothing, and the shell counts the abort.
func writeStatusError(w http.ResponseWriter, req *http.Request, err error) {
	if req.Context().Err() != nil {
		return
	}
	var se *api.StatusError
	if errors.As(err, &se) {
		if se.RetryAfter > 0 {
			api.SetRetryAfter(w, se.RetryAfter)
		}
		http.Error(w, se.Msg, se.Code)
		return
	}
	http.Error(w, err.Error(), http.StatusBadGateway)
}

// querySession is one query's routing state: the candidate nodes in
// placement order and the snapshot lease on whichever of them is
// currently serving. Workers share it; a failed chunk advances the
// session to the next candidate exactly once no matter how many workers
// hit the failure.
type querySession struct {
	r      *Router
	key    string
	stream string
	cands  []Node

	mu       sync.Mutex
	cur      int // index of the serving candidate
	cl       *api.Client
	lease    string
	streams  map[string]int // committed lengths at the FIRST pin (resolves To)
	releases []func()
}

// acquire returns the serving candidate's client and lease, advancing
// past dead candidates. The returned generation identifies the candidate
// for fail().
func (s *querySession) acquire(ctx context.Context) (gen int, cl *api.Client, lease string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.cl != nil {
			return s.cur, s.cl, s.lease, nil
		}
		if s.cur >= len(s.cands) {
			return 0, nil, "", fmt.Errorf("cluster: no live replica of %q (%d candidates tried)", s.stream, len(s.cands))
		}
		node := s.cands[s.cur]
		cl := s.r.clientFor(node, s.key)
		pctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		resp, perr := cl.PinSnapshot(pctx)
		cancel()
		if perr != nil {
			// This candidate is down (or refusing): count the degraded
			// route and move on.
			s.r.degradedRoutes.Add(1)
			s.cur++
			continue
		}
		s.cl, s.lease = cl, resp.ID
		if s.streams == nil {
			s.streams = resp.Streams
		}
		id := resp.ID
		s.releases = append(s.releases, func() {
			rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer rcancel()
			_, _ = cl.ReleaseSnapshot(rctx, id)
		})
		return s.cur, s.cl, s.lease, nil
	}
}

// fail abandons the candidate identified by gen; later acquires move to
// the next one. A stale gen (another worker already advanced) is a no-op.
func (s *querySession) fail(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen == s.cur {
		s.cl, s.lease = nil, ""
		s.cur++
		s.r.degradedRoutes.Add(1)
	}
}

// release releases every lease the session pinned (best-effort; a lease
// on a dead node expires by TTL instead).
func (s *querySession) release() {
	s.mu.Lock()
	rels := s.releases
	s.releases = nil
	s.mu.Unlock()
	for _, rel := range rels {
		rel()
	}
}

// run executes one span [lo, hi) on the serving candidate, failing over
// until a candidate answers or all are exhausted. Chunks are
// deterministic functions of the replicated bytes, so a re-run on a
// follower returns the same chunk the owner would have. retry429 selects
// whether node-side admission rejections are retried here (mid-stream
// spans, where the 429 can no longer become a status code) or surfaced
// to the caller (the first span, which still can).
func (s *querySession) run(ctx context.Context, req api.QueryRequest, lo, hi int, retry429 bool) (api.QueryChunk, error) {
	for {
		gen, cl, lease, err := s.acquire(ctx)
		if err != nil {
			return api.QueryChunk{}, err
		}
		chunks, _, err := cl.Query(ctx, api.QueryRequest{
			Stream:   req.Stream,
			Query:    req.Query,
			Accuracy: req.Accuracy,
			From:     lo,
			To:       hi,
			Snap:     lease,
		})
		if err == nil {
			if len(chunks) != 1 {
				return api.QueryChunk{}, fmt.Errorf("cluster: node returned %d chunks for one span", len(chunks))
			}
			return chunks[0], nil
		}
		if ctx.Err() != nil {
			return api.QueryChunk{}, err
		}
		if api.IsRejected(err) {
			if !retry429 {
				return api.QueryChunk{}, err
			}
			hint, _ := api.RetryAfterHint(err)
			if hint <= 0 {
				hint = time.Second
			}
			select {
			case <-ctx.Done():
				return api.QueryChunk{}, ctx.Err()
			case <-time.After(hint):
			}
			continue
		}
		var se *api.StatusError
		if errors.As(err, &se) && se.Code < 500 && se.Code != http.StatusNotFound {
			// The node understood and refused (bad request, unauthorized):
			// no other replica will answer differently.
			return api.QueryChunk{}, err
		}
		// Transport failure, 5xx, truncated stream, or an expired lease
		// (404): the candidate is gone — fail over.
		s.fail(gen)
	}
}

// handleQuery serves one query across the cluster: resolve the stream's
// candidates, lease a snapshot on the first live one, fan the range out
// in chunks over the worker pool, and merge the results back in segment
// order. Errors before the first byte keep their status codes (a node's
// 429 stays a 429, hint included); errors after it travel in-band, as on
// a node.
func (r *Router) handleQuery(w *api.Response, req *http.Request) {
	var qr api.QueryRequest
	if !api.ReadJSON(w, req, &qr) {
		return
	}
	if err := qr.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if qr.Snap != "" {
		http.Error(w, "snapshot leases are node-scoped; query the node directly", http.StatusBadRequest)
		return
	}

	ctx, cancel := context.WithCancel(req.Context())
	defer cancel()
	sess := &querySession{r: r, key: api.APIKey(req), stream: qr.Stream, cands: r.Place(qr.Stream)}
	defer sess.release()
	if _, _, _, err := sess.acquire(ctx); err != nil {
		writeStatusError(w, req, err)
		return
	}

	// The spans: one per chunk of the merge, executed concurrently,
	// emitted in order.
	type span struct{ lo, hi int }
	var spans []span
	for lo, hi := range qr.Spans(sess.streams[qr.Stream]) {
		spans = append(spans, span{lo, hi})
	}

	type spanResult struct {
		chunk api.QueryChunk
		err   error
	}
	results := make([]chan spanResult, len(spans))
	sem := make(chan struct{}, r.workers)
	for i := range spans {
		results[i] = make(chan spanResult, 1)
		go func(i int) {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results[i] <- spanResult{err: ctx.Err()}
				return
			}
			c, err := sess.run(ctx, qr, spans[i].lo, spans[i].hi, i > 0)
			results[i] <- spanResult{chunk: c, err: err}
		}(i)
	}

	t0 := time.Now()
	segments := 0
	for i := range spans {
		res := <-results[i]
		if res.err != nil {
			if !w.Wrote() {
				// Nothing sent yet: the error keeps its status code.
				writeStatusError(w, req, res.err)
				return
			}
			w.MidStreamErr = true
			w.Line(api.QueryLine{Error: res.err.Error()})
			return
		}
		if !w.Line(api.QueryLine{Chunk: &res.chunk}) {
			return
		}
		segments += spans[i].hi - spans[i].lo
	}
	w.Line(api.QueryLine{Done: &api.QuerySummary{
		Chunks:   len(spans),
		Segments: segments,
		WallMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	}})
}

// handleIngest forwards the write to the stream's owner, then fans
// replication pulls out to the followers in the background. Pulls are
// idempotent stream-level copies, so a failed pull is simply retried by
// the next ingest's fan-out.
func (r *Router) handleIngest(w *api.Response, req *http.Request) {
	var ir api.IngestRequest
	if !api.ReadJSON(w, req, &ir) {
		return
	}
	if ir.Stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	cands := r.Place(ir.Stream)
	owner := cands[0]
	key := api.APIKey(req)
	resp, err := r.clientFor(owner, key).Ingest(req.Context(), ir)
	if err != nil {
		// Writes have one home: the owner down means the ingest fails
		// (replication is for read availability, not multi-master writes).
		writeStatusError(w, req, err)
		return
	}
	for _, follower := range cands[1:] {
		follower := follower
		r.background.Add(1)
		go func() {
			defer r.background.Done()
			pctx, cancel := context.WithTimeout(r.drainCtx, 2*time.Minute)
			defer cancel()
			if _, err := r.clientFor(follower, key).Pull(pctx, api.PullRequest{
				Stream: ir.Stream, Source: owner.URL,
			}); err != nil {
				r.replicationErrs.Add(1)
				return
			}
			r.replications.Add(1)
		}()
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleSubscribe proxies the standing-query stream to the stream's
// owner: the subscription lives where commits happen. The request is read
// as every endpoint reads its body and forwarded re-encoded; the NDJSON
// lines pass through untouched, flushed as they arrive.
func (r *Router) handleSubscribe(w *api.Response, req *http.Request) {
	var sr api.SubscribeRequest
	if !api.ReadJSON(w, req, &sr) {
		return
	}
	if sr.Stream == "" {
		http.Error(w, "missing stream", http.StatusBadRequest)
		return
	}
	body, err := json.Marshal(sr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	owner := r.Place(sr.Stream)[0]
	preq, err := http.NewRequestWithContext(req.Context(), http.MethodPost, owner.URL+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	preq.Header.Set("Content-Type", "application/json")
	if k := api.APIKey(req); k != "" {
		preq.Header.Set("X-API-Key", k)
	}
	resp, err := r.http.Do(preq)
	if err != nil {
		http.Error(w, fmt.Sprintf("owner %s unreachable: %v", owner.Name, err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	if v := resp.Header.Get("Retry-After"); v != "" {
		w.Header().Set("Retry-After", v)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			w.Flush()
		}
		if rerr != nil {
			return
		}
	}
}

// handleStats aggregates every node's /v1/stats under the router's own
// counters. Unreachable nodes are reported, not fatal — a degraded
// cluster still has statistics.
func (r *Router) handleStats(w *api.Response, req *http.Request) {
	resp := StatsResponse{
		Router: RouterStats{
			DegradedRoutes:    r.degradedRoutes.Load(),
			Replications:      r.replications.Load(),
			ReplicationErrors: r.replicationErrs.Load(),
			Endpoints:         r.Metrics(),
		},
		Nodes:       map[string]*api.StatsResponse{},
		Unreachable: map[string]string{},
	}
	key := api.APIKey(req)
	stats, errs := eachNode(req.Context(), r, 5*time.Second, func(ctx context.Context, n Node) (api.StatsResponse, error) {
		return r.clientFor(n, key).Stats(ctx)
	})
	for i, n := range r.nodes {
		if errs[i] != nil {
			resp.Unreachable[n.Name] = errs[i].Error()
		} else {
			resp.Nodes[n.Name] = &stats[i]
		}
	}
	if len(resp.Unreachable) == 0 {
		resp.Unreachable = nil
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// mergedStreams asks every node for its streams and keeps, per stream,
// the longest committed length (the owner leads its followers while
// replication is catching up).
func (r *Router) mergedStreams(ctx context.Context, key string) map[string]api.StreamInfo {
	merged := map[string]api.StreamInfo{}
	answers, _ := eachNode(ctx, r, 5*time.Second, func(ctx context.Context, n Node) (map[string]api.StreamInfo, error) {
		return r.clientFor(n, key).Streams(ctx)
	})
	for _, streams := range answers {
		for name, info := range streams {
			if have, ok := merged[name]; !ok || info.Segments > have.Segments {
				merged[name] = info
			}
		}
	}
	return merged
}

// eachNode asks every node at once, each under its own timeout, and returns
// the answers and errors in membership order: callers fold them with no
// locking of their own.
func eachNode[T any](ctx context.Context, r *Router, timeout time.Duration, ask func(ctx context.Context, n Node) (T, error)) ([]T, []error) {
	errs := make([]error, len(r.nodes))
	answers, _ := sched.Ordered(len(r.nodes), len(r.nodes), func(i int) (T, error) {
		nctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		v, err := ask(nctx, r.nodes[i])
		errs[i] = err
		return v, nil
	})
	return answers, errs
}

func (r *Router) handleStreams(w *api.Response, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.StreamsResponse{
		Streams: r.mergedStreams(req.Context(), api.APIKey(req)),
	})
}

// handleCluster is placement introspection: the membership with
// liveness, and where every known stream lives.
func (r *Router) handleCluster(w *api.Response, req *http.Request) {
	resp := ClusterResponse{
		Replicas:   r.replicas,
		Workers:    r.workers,
		Placements: map[string][]string{},
	}
	key := api.APIKey(req)
	resp.Nodes, _ = eachNode(req.Context(), r, 3*time.Second, func(ctx context.Context, n Node) (NodeStatus, error) {
		st := NodeStatus{Node: n}
		h, err := r.clientFor(n, key).Healthz(ctx)
		if err != nil {
			st.Error = err.Error()
		} else {
			st.OK = h.OK
			st.Draining = h.Draining
		}
		return st, nil
	})
	for stream := range r.mergedStreams(req.Context(), key) {
		var names []string
		for _, n := range r.Place(stream) {
			names = append(names, n.Name)
		}
		resp.Placements[stream] = names
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics is the router's own Prometheus text exposition. Node
// metrics stay on the nodes (scrape each /metrics directly); the router
// exports what only it knows — routing health and per-endpoint traffic —
// plus a liveness gauge per node.
func (r *Router) handleMetrics(w *api.Response, req *http.Request) {
	var e api.Exposition
	e.Value("vstore_router_degraded_routes_total", "counter",
		"Candidate nodes skipped while routing reads (owner down, failover to follower).", float64(r.degradedRoutes.Load()))
	e.Value("vstore_router_replications_total", "counter", "Follower replication pulls completed.", float64(r.replications.Load()))
	e.Value("vstore_router_replication_errors_total", "counter", "Follower replication pulls failed.", float64(r.replicationErrs.Load()))
	e.Endpoints("vstore_router", r.Metrics())

	// Node liveness, probed now.
	up, _ := eachNode(req.Context(), r, 2*time.Second, func(ctx context.Context, n Node) (float64, error) {
		if h, err := r.clientFor(n, "").Healthz(ctx); err == nil && h.OK {
			return 1, nil
		}
		return 0, nil
	})
	e.Head("vstore_router_node_up", "gauge", "Whether the node answered its health check.")
	for i, n := range r.nodes {
		e.Sample("vstore_router_node_up", api.Label("node", n.Name), up[i])
	}
	e.Send(w)
}

func (r *Router) handleHealthz(w *api.Response, req *http.Request) {
	api.WriteJSON(w, http.StatusOK, api.HealthResponse{OK: true, Draining: r.Draining()})
}

// Shutdown drains the router: new requests are refused, background
// replication pulls are aborted (they are idempotent and resume on the
// next ingest) and given until ctx ends to return, and in-flight requests
// finish.
func (r *Router) Shutdown(ctx context.Context) error {
	return r.Shell.Shutdown(ctx, func() {
		r.cancelDrain()
		done := make(chan struct{})
		go func() {
			r.background.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
		}
	})
}
