// The stateless router: one HTTP server fronting a static membership of
// vstore nodes. Reads resolve the stream to its owner through the
// consistent-hash placer and send the node the client's whole query as one
// request, relaying its chunk lines as they arrive — so the response is
// byte-identical to the same query against a single node holding the data.
// The node pins a snapshot for the request and reports the stream's length
// in it before the first line. When the owner fails the query moves to the
// stream's replica followers and sends only the unrelayed remainder (chunks
// are deterministic, so a re-run lands the same bytes), counting the
// degraded route. Writes forward to the owner and fan replication pulls out
// to the followers in the background.

package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
)

// Options configures a router.
type Options struct {
	// Nodes is the static membership; at least one node.
	Nodes []Node
	// Replicas is how many nodes serve each stream (the owner plus
	// Replicas-1 followers). Zero or one means no replication.
	Replicas int
}

// Router serves the cluster. Create with NewRouter, start with Start (or
// mount Handler), stop with Shutdown.
type Router struct {
	*api.Shell
	nodes    []Node
	placer   *Placer
	replicas int

	http *http.Client // shared transport to the nodes; no global timeout (streams)

	degradedRoutes  atomic.Int64
	replications    atomic.Int64
	replicationErrs atomic.Int64

	// drainCtx ends when Shutdown begins, aborting background replication
	// pulls.
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
		http:     &http.Client{},
	}
	if r.replicas < 1 {
		r.replicas = 1
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

// handleQuery serves one query across the cluster: send the client's whole
// request to the stream's first live candidate and relay each chunk line as
// its node wrote it, resolving To = 0 from the node's CommittedHeader, which
// it passes on. When the candidate fails mid-stream, only the unrelayed
// remainder goes to the next one: chunks are deterministic functions of the
// replicated bytes and the remainder starts on a chunk boundary, so the
// lines carry on where they stopped. Errors before the first byte keep
// their status codes (a node's 429 stays a 429, hint included); errors
// after it travel in-band, as on a node.
func (r *Router) handleQuery(w *api.Response, req *http.Request) {
	var qr api.QueryRequest
	if !api.ReadJSON(w, req, &qr) {
		return
	}
	if err := qr.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	if qr.TimeoutMs > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(qr.TimeoutMs)*time.Millisecond)
		defer cancel()
	}
	writeErr := func(err error) {
		if !w.Wrote() {
			// Nothing sent yet: the error keeps its status code.
			writeStatusError(w, req, err)
			return
		}
		w.MidStreamErr = !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
		w.Line(api.QueryLine{Error: err.Error()})
	}

	cands, key := r.Place(qr.Stream), api.APIKey(req)
	cur := 0    // index of the serving candidate
	first := -1 // the committed length the first accepted candidate pinned
	to, from := qr.To, qr.From
	next := from // the first segment no relayed line covers
	t0 := time.Now()
	chunks := 0
	for first < 0 || next < to {
		if cur == len(cands) {
			writeErr(fmt.Errorf("cluster: no live replica of %q (%d candidates tried)", qr.Stream, len(cands)))
			return
		}
		rest := qr
		rest.From, rest.To = next, to
		_, err := r.clientFor(cands[cur], key).QueryLines(ctx, rest, func(committed int) error {
			// A follower holding less of the stream than the first answer
			// (none of it, when the owner was gone from the start) missed a
			// pull whose data the owner took down with it: it would answer
			// a shorter stream as the whole one, so it is no replica.
			if cur > 0 && committed < max(1, first) {
				return errors.New("cluster: replica short of the stream")
			}
			if first < 0 {
				first = committed
				w.Header().Set(api.CommittedHeader, strconv.Itoa(first))
				if to == 0 {
					to = committed
				}
				from = min(from, to)
				next = from
			}
			return nil
		}, func(line []byte) error {
			if next == to {
				return errors.New("cluster: node answered past the range")
			}
			w.Line(line)
			chunks++
			if qr.Chunk > 0 && qr.Chunk < to-next { // not next+Chunk < to: that sum can overflow
				next += qr.Chunk
			} else {
				next = to
			}
			return nil
		})
		if err == nil && next < to {
			err = errors.New("cluster: node answered short of the range")
		}
		var se *api.StatusError
		switch {
		case err == nil:
		case ctx.Err() != nil:
			writeErr(ctx.Err())
			return
		case api.IsRejected(err) && w.Wrote():
			// Too late for a status code: wait out the node's hint and
			// retry the remainder.
			hint, _ := api.RetryAfterHint(err)
			if hint <= 0 {
				hint = time.Second
			}
			select {
			case <-ctx.Done():
				writeErr(ctx.Err())
				return
			case <-time.After(hint):
			}
		case errors.As(err, &se) && se.Code < 500:
			// The node understood and refused (admission before any line,
			// bad request, unauthorized): no other replica answers otherwise.
			writeErr(err)
			return
		default:
			// Transport failure, 5xx, truncated stream, in-band error or a
			// short replica: count the degraded route and move on.
			cur++
			r.degradedRoutes.Add(1)
		}
	}
	w.Line(api.QueryLine{Done: &api.QuerySummary{
		Chunks:   chunks,
		Segments: to - from,
		WallMs:   float64(time.Since(t0).Nanoseconds()) / 1e6,
	}})
}

// handleIngest forwards the write to the stream's owner, which validates
// it, then fans replication pulls out to the followers in the background.
// Pulls are idempotent stream-level copies, so a failed pull is simply
// retried by the next ingest's fan-out.
func (r *Router) handleIngest(w *api.Response, req *http.Request) {
	var ir api.IngestRequest
	if !api.ReadJSON(w, req, &ir) {
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

// handleSubscribe relays the standing-query stream from the stream's
// owner, where commits happen: each line goes out as the owner wrote it,
// flushed as it arrives. A refusal before the first line keeps its status
// code, message and Retry-After hint, as a query's does.
func (r *Router) handleSubscribe(w *api.Response, req *http.Request) {
	var sr api.SubscribeRequest
	if !api.ReadJSON(w, req, &sr) {
		return
	}
	owner := r.Place(sr.Stream)[0]
	err := r.clientFor(owner, api.APIKey(req)).Stream(req.Context(), "/v1/subscribe", sr, func(line []byte) (bool, error) {
		w.Line(line)
		return false, nil
	})
	if err != nil && !w.Wrote() {
		writeStatusError(w, req, err)
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
	answers := make([]T, len(r.nodes))
	errs := make([]error, len(r.nodes))
	var wg sync.WaitGroup
	for i, n := range r.nodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nctx, cancel := context.WithTimeout(ctx, timeout)
			defer cancel()
			answers[i], errs[i] = ask(nctx, n)
		}()
	}
	wg.Wait()
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
