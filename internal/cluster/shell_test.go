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
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
)

// TestRouterHugeChunkOneSpan: the router splits a range with the same
// QueryRequest.Spans a node does, so a chunk large enough to overflow
// lo+chunk is one span there too — it used to wrap negative and hang.
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
		switch r.URL.Path {
		case "/v1/snapshot":
			api.WriteJSON(w, http.StatusOK, api.SnapshotResponse{ID: "s1", Streams: map[string]int{"cam": 2}})
		case "/v1/query":
			w.Header().Set("Retry-After", "3")
			http.Error(w, "admission queue full", http.StatusTooManyRequests)
		default:
			http.NotFound(w, r)
		}
	}))
	defer node.Close()
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}})
	_, _, err := rcl.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery})
	if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != 3*time.Second {
		t.Fatalf("node 429 reached the client as %v, want 429 with Retry-After 3s", err)
	}
}

// TestRouterRelaysNodeLines: the router passes each span's chunk line on
// as the node wrote it. The stub's lines are valid but not what the node's
// encoder writes — keys out of struct order and a float spelled 1.50, then
// a space after the chunk key — and the router's body carries them byte for
// byte, where a decode and re-encode would respell both.
func TestRouterRelaysNodeLines(t *testing.T) {
	lines := []string{
		`{"chunk":{"seg1":1,"seg0":0,"speed":1.50,"detections":[],"final_pts":[],"video_seconds":2,"virtual_seconds":0.5}}`,
		`{"chunk": {"seg0":1,"seg1":2,"detections":null,"final_pts":[7],"video_seconds":2.0,"virtual_seconds":1,"speed":2}}`,
	}
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/snapshot":
			api.WriteJSON(w, http.StatusOK, api.SnapshotResponse{ID: "s1", Streams: map[string]int{"cam": 2}})
		case "/v1/query":
			var q api.QueryRequest
			if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fmt.Fprintf(w, "%s\n{\"done\":{\"chunks\":1,\"segments\":1}}\n", lines[q.From])
		default:
			http.NotFound(w, r)
		}
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

// TestRouterFanOutBounded: a routed query runs its spans on at most
// Workers goroutines, however many spans the range cuts into. The stub
// node answers span 0 at once and holds every other span until the first
// chunk has reached the client — by then the router has started every
// goroutine it would start for spans it cannot yet merge.
func TestRouterFanOutBounded(t *testing.T) {
	const spans = 2000
	release := make(chan struct{})
	var once sync.Once
	letGo := func() { once.Do(func() { close(release) }) }
	defer letGo()
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/snapshot":
			api.WriteJSON(w, http.StatusOK, api.SnapshotResponse{ID: "s1", Streams: map[string]int{"cam": spans}})
		case "/v1/query":
			var q api.QueryRequest
			if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if q.From > 0 {
				select {
				case <-release:
				case <-r.Context().Done():
					return
				}
			}
			enc := json.NewEncoder(w)
			enc.Encode(api.QueryLine{Chunk: &api.QueryChunk{Seg0: q.From, Seg1: q.To}})
			enc.Encode(api.QueryLine{Done: &api.QuerySummary{Chunks: 1, Segments: q.To - q.From}})
		default:
			http.NotFound(w, r)
		}
	}))
	defer node.Close()
	_, rcl, _ := startRouter(t, cluster.Options{Nodes: []cluster.Node{{Name: "n1", URL: node.URL}}, Workers: 2})

	base := runtime.NumGoroutine()
	n := 0
	sum, err := rcl.QueryStream(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1}, func(c api.QueryChunk) error {
		if n == 0 {
			if grew := runtime.NumGoroutine() - base; grew >= 50 {
				return fmt.Errorf("%d goroutines started for a %d-span query with 2 workers", grew, spans)
			}
			letGo()
		}
		if c.Seg0 != n || c.Seg1 != n+1 {
			return fmt.Errorf("chunk %d is [%d, %d)", n, c.Seg0, c.Seg1)
		}
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != spans || sum.Chunks != spans || sum.Segments != spans {
		t.Fatalf("got %d chunks, summary %+v; want %d", n, sum, spans)
	}
}

// TestRouterShellAccounting is what the router gains from standing on the
// node's shell: a body past the bound is refused and counted, a client
// that vanishes before the first byte is an abort (not a 502), an
// out-of-range accuracy is the router's own 400, and a drain-time 503 is
// counted as unavailable.
func TestRouterShellAccounting(t *testing.T) {
	// The one member answers no pin until the test is over.
	pinning, release := make(chan struct{}, 1), make(chan struct{})
	node := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot" {
			http.NotFound(w, r)
			return
		}
		pinning <- struct{}{}
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
	<-pinning
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
