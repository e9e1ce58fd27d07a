package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
)

// TestRouterHugeChunkOneSpan: a chunk large enough to overflow lo+chunk
// is one span through the router too — the router's split used to wrap
// negative and hang, and its relay steps over chunks with the same guard.
func TestRouterHugeChunkOneSpan(t *testing.T) {
	n := startNode(t, "n1")
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{n.node}})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if _, err := rcl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: 2}); err != nil {
		t.Fatal(err)
	}
	chunks, sum, err := rcl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, From: 1, Chunk: math.MaxInt})
	if err != nil {
		t.Fatalf("huge chunk through the router: %v", err)
	}
	if len(chunks) != 1 || chunks[0].Seg0 != 1 || chunks[0].Seg1 != 2 || sum.Chunks != 1 || sum.Segments != 1 {
		t.Fatalf("huge chunk gave %d chunks %+v, summary %+v; want one chunk [1, 2)", len(chunks), chunks, sum)
	}
}

// TestRouterPassesNode429: a node's admission rejection on a single-span
// query reaches the router's client as the same 429 with the same
// Retry-After hint.
func TestRouterPassesNode429(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Retry-After", "3")
		http.Error(w, "admission queue full", http.StatusTooManyRequests)
	}))
	defer node.Close()
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	_, _, err := rcl.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery})
	if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != 3*time.Second {
		t.Fatalf("node 429 reached the client as %v, want 429 with Retry-After 3s", err)
	}
}

// TestRouterRelaysNodeLines: the router passes each chunk line on as the
// node wrote it. The stub's lines are valid but not what the node's
// encoder writes — keys out of struct order and a float spelled 1.50, then
// a space after the chunk key — and the router's body carries them byte for
// byte, where a decode and re-encode would respell both.
func TestRouterRelaysNodeLines(t *testing.T) {
	lines := []string{
		`{"chunk":{"seg1":1,"seg0":0,"speed":1.50,"detections":[],"final_pts":[],"video_seconds":2,"virtual_seconds":0.5}}`,
		`{"chunk": {"seg0":1,"seg1":2,"detections":null,"final_pts":[7],"video_seconds":2.0,"virtual_seconds":1,"speed":2}}`,
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q api.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil || r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(api.CommittedHeader, strconv.Itoa(len(lines)))
		n := 0
		for lo := range q.Spans(len(lines)) {
			fmt.Fprintf(w, "%s\n", lines[lo])
			n++
		}
		fmt.Fprintf(w, "{\"done\":{\"chunks\":%d,\"segments\":%d}}\n", n, n)
	}))
	defer node.Close()
	_, _, url := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"stream":"cam","chunk":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(string(body), "\n")
	if len(got) != 4 || got[0] != lines[0] || got[1] != lines[1] || !strings.HasPrefix(got[2], `{"done":{"chunks":2,"segments":2,`) || got[3] != "" {
		t.Fatalf("router body:\n%s\nwant the node's two lines as written, then the router's trailer", body)
	}
}

// TestRouterPassesSubscribeRefusal: a node's refusal of a subscription
// reaches the router's client as the node sent it — a 429 with its
// Retry-After hint, a 400 with its message.
func TestRouterPassesSubscribeRefusal(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var sr api.SubscribeRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil || r.URL.Path != "/v1/subscribe" {
			http.NotFound(w, r)
			return
		}
		if sr.Policy != "" {
			http.Error(w, "unknown policy "+sr.Policy, http.StatusBadRequest)
			return
		}
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server saturated: subscription limit reached", http.StatusTooManyRequests)
	}))
	defer node.Close()
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	ctx := context.Background()
	_, err := rcl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam"}, nil)
	if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != time.Second {
		t.Fatalf("node 429 on subscribe reached the client as %v, want 429 with Retry-After 1s", err)
	}
	_, err = rcl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam", Policy: "sometimes"}, nil)
	if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.Msg != "unknown policy sometimes" {
		t.Fatalf("node 400 on subscribe reached the client as %v, want 400 with the node's message", err)
	}
}

// stubNode is a node holding segments of a stream: it answers a query
// with the committed-length header, one encoded chunk line per span and
// the trailer, and any other path with 404. Every request's path, and a
// query's decoded body, goes to seen first. With cut >= 0 it dies after
// cut chunk lines instead, its response aborted mid-stream.
func stubNode(segments, cut int, seen func(path string, q api.QueryRequest)) *httptest.Server {
	var mu sync.Mutex
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var q api.QueryRequest
		if r.URL.Path == "/v1/query" {
			if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		mu.Lock()
		seen(r.URL.Path, q)
		mu.Unlock()
		if r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(api.CommittedHeader, strconv.Itoa(segments))
		enc := json.NewEncoder(w)
		n := 0
		for lo, hi := range q.Spans(segments) {
			if n == cut {
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
			enc.Encode(api.QueryLine{Chunk: &api.QueryChunk{Seg0: lo, Seg1: hi}})
			n++
		}
		enc.Encode(api.QueryLine{Done: &api.QuerySummary{Chunks: n, Segments: q.To - q.From}})
	}))
}

// TestRouterOneRequestPerQuery: a routed query is one request to its
// node, whatever the chunking: the client's /v1/query as sent, chunk and
// timeout_ms included, and no snapshot pin or release around it; the
// router starts no goroutine per chunk, and the client gets every chunk in
// order.
func TestRouterOneRequestPerQuery(t *testing.T) {
	for _, tc := range []struct{ segments, chunk int }{{3, 0}, {3, 1}, {2000, 1}} {
		var paths []string
		var reqs []api.QueryRequest
		node := stubNode(tc.segments, -1, func(path string, q api.QueryRequest) {
			paths = append(paths, path)
			reqs = append(reqs, q)
		})
		_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})

		base, grew := runtime.NumGoroutine(), 0
		n := 0
		req := api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: tc.chunk, TimeoutMs: 60000}
		sum, err := rcl.QueryStream(context.Background(), req, func(c api.QueryChunk) error {
			grew = max(grew, runtime.NumGoroutine()-base)
			lo, hi := n, tc.segments
			if tc.chunk > 0 {
				hi = n + 1
			}
			if c.Seg0 != lo || c.Seg1 != hi {
				return fmt.Errorf("chunk %d is [%d, %d), want [%d, %d)", n, c.Seg0, c.Seg1, lo, hi)
			}
			n++
			return nil
		})
		node.Close()
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		want := 1
		if tc.chunk > 0 {
			want = tc.segments
		}
		if n != want || sum.Chunks != want || sum.Segments != tc.segments {
			t.Fatalf("%+v: got %d chunks, summary %+v; want %d", tc, n, sum, want)
		}
		if grew >= 20 {
			t.Fatalf("%+v: %d goroutines started for a %d-chunk query", tc, grew, want)
		}
		if len(paths) != 1 || paths[0] != "/v1/query" {
			t.Fatalf("%+v: the node saw requests %q, want one /v1/query", tc, paths)
		}
		if q := reqs[0]; q != req {
			t.Fatalf("%+v: the node saw %+v, want the client's request %+v", tc, q, req)
		}
	}
}

// TestRouterFrontsRouter: a router answers /v1/query with the node's
// CommittedHeader, so a router placed in front of another router reaches
// the node through it instead of counting it dead.
func TestRouterFrontsRouter(t *testing.T) {
	node := stubNode(3, -1, func(string, api.QueryRequest) {})
	defer node.Close()
	_, _, innerURL := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	outer, rcl, outerURL := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "inner", URL: innerURL}}})
	resp, err := http.Post(outerURL+"/v1/query", "application/json", strings.NewReader(`{"stream":"cam"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(api.CommittedHeader); resp.StatusCode != http.StatusOK || got != "3" {
		t.Fatalf("outer router answered %d with %s %q, want 200 with 3", resp.StatusCode, api.CommittedHeader, got)
	}
	var seg []int
	sum, err := rcl.QueryStream(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1}, func(c api.QueryChunk) error {
		seg = append(seg, c.Seg0)
		return nil
	})
	if err != nil || len(seg) != 3 || seg[2] != 2 || sum.Segments != 3 {
		t.Fatalf("query through two routers: chunks from %v, summary %+v, err %v; want 3 chunks", seg, sum, err)
	}
	if n := outer.DegradedRoutes(); n != 0 {
		t.Fatalf("outer router counted %d degraded routes, want 0", n)
	}
}

// TestRouterTimeoutEndsQuery: the client's timeout_ms bounds the routed
// query as a whole. A node that stalls after one line is not failed over
// to a replica: the query ends in-band at the deadline, its node asked
// once and no route counted as degraded.
func TestRouterTimeoutEndsQuery(t *testing.T) {
	queries := make(chan struct{}, 4)
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		queries <- struct{}{}
		w.Header().Set(api.CommittedHeader, "3")
		json.NewEncoder(w).Encode(api.QueryLine{Chunk: &api.QueryChunk{Seg0: 0, Seg1: 1}})
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	}))
	defer node.Close()
	rt, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	n := 0
	_, err := rcl.QueryStream(ctx, api.QueryRequest{Stream: "cam", Chunk: 1, TimeoutMs: 300}, func(api.QueryChunk) error {
		n++
		return nil
	})
	var se *api.StreamError
	if !errors.As(err, &se) || !strings.Contains(se.Msg, "deadline exceeded") || n != 1 {
		t.Fatalf("stalled node gave %d chunks and %v, want 1 and the deadline in-band", n, err)
	}
	if len(queries) != 1 || rt.DegradedRoutes() != 0 {
		t.Fatalf("%d node queries, %d degraded routes; want 1 and 0", len(queries), rt.DegradedRoutes())
	}
}

// TestRouterResumesOnFollower: the owner streams two of five chunk=1
// lines and dies; the router sends the follower one query for the
// remainder [2, 5) alone, and the client sees all five lines in order
// under one trailer.
func TestRouterResumesOnFollower(t *testing.T) {
	// Placement hashes node names alone, so the stream is picked first.
	placer, err := cluster.NewPlacer([]cluster.Node{{Name: "owner", URL: "http://x"}, {Name: "follower", URL: "http://y"}})
	if err != nil {
		t.Fatal(err)
	}
	stream := streamOwnedBy(t, func(s string) []cluster.Node { return placer.Place(s, 1) }, "owner")
	owner := stubNode(5, 2, func(string, api.QueryRequest) {})
	defer owner.Close()
	var reqs []api.QueryRequest
	follower := stubNode(5, -1, func(_ string, q api.QueryRequest) { reqs = append(reqs, q) })
	defer follower.Close()
	rt, rcl, _ := startRouter(t, cluster.Options{
		Nodes:    []cluster.Node{{Name: "owner", URL: owner.URL}, {Name: "follower", URL: follower.URL}},
		Replicas: 2,
	})

	n := 0
	sum, err := rcl.QueryStream(context.Background(), api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1}, func(c api.QueryChunk) error {
		if c.Seg0 != n || c.Seg1 != n+1 {
			return fmt.Errorf("line %d is [%d, %d)", n, c.Seg0, c.Seg1)
		}
		n++
		return nil
	})
	follower.Close() // waits for its handler: reqs is final
	if err != nil {
		t.Fatalf("query through the owner's death: %v", err)
	}
	if n != 5 || sum.Chunks != 5 || sum.Segments != 5 {
		t.Fatalf("got %d lines, summary %+v; want 5 chunks over 5 segments", n, sum)
	}
	if len(reqs) != 1 || reqs[0].From != 2 || reqs[0].To != 5 || reqs[0].Chunk != 1 {
		t.Fatalf("the follower saw %+v, want one query for [2, 5) at chunk 1", reqs)
	}
	if d := rt.DegradedRoutes(); d != 1 {
		t.Fatalf("DegradedRoutes = %d, want 1", d)
	}
}

// TestRouterSkipsShortFollower: the owner reports five segments, streams
// two chunk=1 lines and dies; the follower reports three, short of the
// stream though not empty. The router relays none of the follower's lines:
// the client gets the owner's two, then an in-band error, and both
// candidates count as degraded routes.
func TestRouterSkipsShortFollower(t *testing.T) {
	placer, err := cluster.NewPlacer([]cluster.Node{{Name: "owner", URL: "http://x"}, {Name: "follower", URL: "http://y"}})
	if err != nil {
		t.Fatal(err)
	}
	stream := streamOwnedBy(t, func(s string) []cluster.Node { return placer.Place(s, 1) }, "owner")
	owner := stubNode(5, 2, func(string, api.QueryRequest) {})
	defer owner.Close()
	follower := stubNode(3, -1, func(string, api.QueryRequest) {})
	defer follower.Close()
	rt, rcl, _ := startRouter(t, cluster.Options{
		Nodes:    []cluster.Node{{Name: "owner", URL: owner.URL}, {Name: "follower", URL: follower.URL}},
		Replicas: 2,
	})

	var got []api.QueryChunk
	_, err = rcl.QueryStream(context.Background(), api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1}, func(c api.QueryChunk) error {
		got = append(got, c)
		return nil
	})
	var se *api.StreamError
	if !errors.As(err, &se) || se.Truncated || len(got) != 2 || got[0].Seg0 != 0 || got[1].Seg0 != 1 {
		t.Fatalf("got %d lines %+v and %v; want the owner's two lines, then an in-band error", len(got), got, err)
	}
	if d := rt.DegradedRoutes(); d != 2 {
		t.Fatalf("DegradedRoutes = %d, want 2", d)
	}
}

// TestRouterSubscribeTornLine: a node that dies mid-line has the router
// relay only its whole lines, so the router's client sees a truncated
// stream after them, never the torn half as a line.
func TestRouterSubscribeTornLine(t *testing.T) {
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"ack":{"id":"s1","stream":"cam"}}`+"\n"+`{"chunk":{"seg0":1,"se`)
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	defer node.Close()
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	var events []api.SubEvent
	_, err := rcl.Subscribe(context.Background(), api.SubscribeRequest{Stream: "cam"}, func(ev api.SubEvent) error {
		events = append(events, ev)
		return nil
	})
	if !api.IsTruncated(err) {
		t.Fatalf("torn subscription ended with %v, want a truncation", err)
	}
	if len(events) != 1 || events[0].Ack == nil || events[0].Ack.ID != "s1" {
		t.Fatalf("events %+v, want the ack alone", events)
	}
}

// TestRouterShellAccounting is what the router gains from standing on the
// node's shell: a body past the bound is refused and counted, a client
// that vanishes before the first byte is an abort (not a 502), an
// out-of-range accuracy is the router's own 400, and a drain-time 503 is
// counted as unavailable.
func TestRouterShellAccounting(t *testing.T) {
	// The one member answers no query until the test is over.
	asked, release := make(chan struct{}, 1), make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query" {
			http.NotFound(w, r)
			return
		}
		asked <- struct{}{}
		<-release
	}))
	defer node.Close()
	defer close(release)
	rt, err := cluster.NewRouter(cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := rt.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String()
	rcl := api.NewClient(url)

	for _, path := range []string{"/v1/query", "/v1/subscribe"} {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(`{"stream":"`+strings.Repeat("x", 2<<20)+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("2 MiB body to %s answered %d, want 413", path, resp.StatusCode)
		}
	}
	_, _, err = rcl.Query(context.Background(), api.QueryRequest{Stream: "cam", Accuracy: 1.5})
	if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("accuracy 1.5 answered %v, want the router's own 400", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, _, err := rcl.Query(ctx, api.QueryRequest{Stream: "cam"})
		gone <- err
	}()
	<-asked
	cancel()
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Fatalf("vanished query returned %v", err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var stats cluster.StatsResponse
		getJSON(t, url+"/v1/stats", &stats)
		q := stats.Router.Endpoints["query"]
		if q.ClientAborts == 1 {
			if q.Requests != 3 || q.Errors != 0 || q.InFlight != 0 {
				t.Fatalf("router query accounting = %+v, want requests=3 errors=0 in_flight=0", q)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client abort never counted: %+v", q)
		}
	}

	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := rt.Shutdown(sctx); err != nil {
		t.Fatalf("router shutdown: %v", err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", strings.NewReader(`{"stream":"cam"}`)))
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != "router draining\n" {
		t.Fatalf("draining router answered %d %q", rec.Code, rec.Body.String())
	}
	// /v1/stats itself is draining now; Metrics is the same counter set.
	if q := rt.Metrics()["query"]; q.Unavailable != 1 || q.Requests != 4 {
		t.Fatalf("drain accounting = %+v, want unavailable=1 requests=4", q)
	}
}
