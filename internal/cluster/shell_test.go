package cluster_test

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
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

	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(`{"stream":"`+strings.Repeat("x", 2<<20)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body answered %d, want 413", resp.StatusCode)
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
