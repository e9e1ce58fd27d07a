package api_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/tenant"
	"repro/internal/vidsim"
)

// TestShellAccounting drives Shell.Route itself, one request per row, and
// states the movement of every EndpointStats field: the counters exactly,
// the latency summary as observed or not (answered requests are, refusals
// and aborts are not), and in_flight back at zero.
func TestShellAccounting(t *testing.T) {
	answered := func(fn func(w *api.Response)) func(*api.Response, *http.Request) {
		return func(w *api.Response, _ *http.Request) {
			time.Sleep(time.Millisecond) // so an observed latency is visibly non-zero
			fn(w)
		}
	}
	rows := []struct {
		name     string
		endpoint string // the route's name; "query" unless the row is about the name
		handler  func(*api.Response, *http.Request)
		drain    bool // the shell is draining when the request arrives
		gone     bool // the client's context is dead when the request arrives
		status   int  // what the client reads
		body     string
		want     api.EndpointStats // counters; latency is stated by observed
		observed bool
	}{
		{name: "200", status: 200, observed: true, want: api.EndpointStats{Requests: 1},
			handler: answered(func(w *api.Response) { api.WriteJSON(w, 200, map[string]bool{"ok": true}) })},
		{name: "401", status: 401, want: api.EndpointStats{Requests: 1, Unauthorized: 1},
			handler: answered(func(w *api.Response) { http.Error(w, "unknown API key", 401) })},
		{name: "429", status: 429, want: api.EndpointStats{Requests: 1, Rejections: 1},
			handler: answered(func(w *api.Response) { http.Error(w, "server saturated", 429) })},
		{name: "500", status: 500, observed: true, want: api.EndpointStats{Requests: 1, Errors: 1},
			handler: answered(func(w *api.Response) { http.Error(w, "boom", 500) })},
		{name: "mid-stream error after a 200", status: 200, observed: true, want: api.EndpointStats{Requests: 1, Errors: 1},
			body: "{\"chunk\":1}\n{\"error\":\"disk\"}\n",
			handler: answered(func(w *api.Response) {
				w.Line(map[string]int{"chunk": 1})
				w.MidStreamErr = true
				w.Line(map[string]string{"error": "disk"})
			})},
		{name: "client gone before any write", gone: true, status: 200, want: api.EndpointStats{Requests: 1, ClientAborts: 1},
			handler: answered(func(*api.Response) {})},
		// A panic is accounted by what the handler had written — nothing
		// here, so the default 200 — and must not leak its in-flight count.
		{name: "panic in the handler", status: 200, observed: true, want: api.EndpointStats{Requests: 1},
			handler: answered(func(*api.Response) { panic("handler bug") })},
		{name: "request during drain", drain: true, status: 503, body: "server draining\n",
			want:    api.EndpointStats{Requests: 1, Unavailable: 1},
			handler: func(*api.Response, *http.Request) { t.Error("handler ran on a draining shell") }},
		{name: "healthz during drain", endpoint: "healthz", drain: true, status: 200, observed: true, want: api.EndpointStats{Requests: 1},
			handler: answered(func(w *api.Response) { api.WriteJSON(w, 200, api.HealthResponse{OK: true, Draining: true}) })},
		{name: "metrics during drain", endpoint: "metrics", drain: true, status: 200, observed: true, want: api.EndpointStats{Requests: 1},
			handler: answered(func(w *api.Response) { new(api.Exposition).Send(w) })},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			endpoint := row.endpoint
			if endpoint == "" {
				endpoint = "query"
			}
			sh := api.NewShell("server")
			sh.Route(endpoint, "POST /x", row.handler)
			if row.drain {
				if err := sh.Shutdown(context.Background(), func() {}); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if row.gone {
				cancel()
			}
			rec := httptest.NewRecorder()
			func() {
				defer func() { _ = recover() }() // net/http's per-connection recover, for the panic row
				sh.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/x", nil).WithContext(ctx))
			}()
			if rec.Code != row.status {
				t.Errorf("status %d, want %d", rec.Code, row.status)
			}
			if row.body != "" && rec.Body.String() != row.body {
				t.Errorf("body %q, want %q", rec.Body.String(), row.body)
			}
			if row.drain && row.status == 503 && rec.Header().Get("Retry-After") != "1" {
				t.Errorf("drain 503 carries Retry-After %q, want 1", rec.Header().Get("Retry-After"))
			}
			got := sh.Metrics()[endpoint]
			if observed := got.AvgMs > 0 && got.MaxMs > 0; observed != row.observed {
				t.Errorf("latency observed = %v (avg %v max %v), want %v", observed, got.AvgMs, got.MaxMs, row.observed)
			}
			got.AvgMs, got.MaxMs = 0, 0
			if got != row.want {
				t.Errorf("counters %+v, want %+v", got, row.want)
			}
		})
	}
}

// TestUnencodableLineEndsStream: a chunk line that cannot be encoded — a
// NaN detection coordinate — ends the stream with its in-band error and no
// later line, not even a trailer that would count the missing chunk. The
// client reads a *StreamError, and the endpoint counts a server error.
func TestUnencodableLineEndsStream(t *testing.T) {
	sh := api.NewShell("server")
	sh.Route("query", "POST /v1/query", func(w *api.Response, _ *http.Request) {
		w.Line(api.QueryLine{Chunk: &api.QueryChunk{Seg1: 1}})
		w.Line(api.QueryLine{Chunk: &api.QueryChunk{Seg0: 1, Seg1: 2, Detections: []api.Detection{{Label: "car", X: math.NaN()}}}})
		w.Line(api.QueryLine{Chunk: &api.QueryChunk{Seg0: 2, Seg1: 3}})
		w.Line(api.QueryLine{Done: &api.QuerySummary{Chunks: 3, Segments: 3}})
	})
	ts := httptest.NewServer(sh.Handler())
	defer ts.Close()

	var seen []int
	_, err := api.NewClient(ts.URL).QueryStream(context.Background(), api.QueryRequest{Stream: "cam"}, func(c api.QueryChunk) error {
		seen = append(seen, c.Seg0)
		return nil
	})
	var se *api.StreamError
	if !errors.As(err, &se) || se.Truncated || !strings.Contains(se.Msg, "NaN") {
		t.Fatalf("err = %v, want an in-band *StreamError naming the NaN", err)
	}
	if !reflect.DeepEqual(seen, []int{0}) {
		t.Fatalf("client saw chunks starting at %v, want only [0]", seen)
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := `{"chunk":{"seg0":0,"seg1":1,"detections":null,"final_pts":null,"video_seconds":0,"virtual_seconds":0,"speed":0}}` + "\n" +
		`{"error":"api: encoding response line: json: unsupported value: NaN"}` + "\n"
	if string(body) != want {
		t.Fatalf("body:\n%s\nwant:\n%s", body, want)
	}
	// The client closed the first stream at its error line, so that
	// handler may still be returning: Close waits for both.
	ts.Close()
	if st := sh.Metrics()["query"]; st.Requests != 2 || st.Errors != 2 {
		t.Fatalf("query counters %+v, want 2 requests, 2 errors", st)
	}
}

// TestClientKeepsConnection: every read path of the client takes its
// response to the end, the chunked terminator after a stream's trailer
// included, so the transport keeps the connection — fifty sequential
// queries, a refused one and a stats call dial once.
func TestClientKeepsConnection(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return (&net.Dialer{}).DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	cl.HTTP = &http.Client{Transport: tr}
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		if _, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Accuracy: 2}); err == nil {
		t.Fatal("accuracy 2 was accepted")
	}
	if _, err := cl.Stats(ctx); err != nil {
		t.Fatal(err)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for 52 sequential requests, want 1", n)
	}
}

// TestHugeChunkOneSpan: a chunk so large that lo+chunk overflows must read
// as "the whole range in one chunk". The split used to wrap negative, emit
// [1, MinInt) and never come back, holding its gate slot and snapshot.
func TestHugeChunkOneSpan(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	chunks, sum, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, From: 1, Chunk: math.MaxInt})
	if err != nil {
		t.Fatalf("huge chunk: %v", err)
	}
	if len(chunks) != 1 || chunks[0].Seg0 != 1 || chunks[0].Seg1 != 2 || sum.Chunks != 1 || sum.Segments != 1 {
		t.Fatalf("huge chunk gave %d chunks %+v, summary %+v; want one chunk [1, 2)", len(chunks), chunks, sum)
	}
}

// FuzzQuerySpans: for any request Validate accepts, Spans tiles [from, to)
// in order — no gap, overlap, empty or negative span, none wider than
// Chunk. A range can be astronomically long, so the walk stops after a
// bounded prefix; the arithmetic that can overflow is in every step.
func FuzzQuerySpans(f *testing.F) {
	f.Add(0, 0, 0, 3)
	f.Add(1, 2, math.MaxInt, 0)
	f.Add(1, 0, math.MaxInt, 2)
	f.Add(0, math.MaxInt, math.MaxInt-1, 5)
	f.Add(math.MaxInt-3, math.MaxInt, 2, 0)
	f.Add(5, 0, 1, 3)
	f.Fuzz(func(t *testing.T, from, to, chunk, committed int) {
		req := api.QueryRequest{Stream: "cam", From: from, To: to, Chunk: chunk}
		if req.Validate() != nil || committed < 0 {
			return
		}
		if to == 0 {
			to = committed
		}
		from = min(from, to)
		next, n := from, 0
		for lo, hi := range req.Spans(committed) {
			if lo != next || hi <= lo || hi > to || (chunk > 0 && hi-lo > chunk) {
				t.Fatalf("span %d is [%d, %d) after %d, chunk %d, range [%d, %d)", n, lo, hi, next, chunk, from, to)
			}
			if chunk > 0 && hi-lo < chunk && hi != to {
				t.Fatalf("short span [%d, %d) before the end %d (chunk %d)", lo, hi, to, chunk)
			}
			next = hi
			if n++; n == 1000 {
				return
			}
		}
		if next != to {
			t.Fatalf("spans end at %d, want %d (from %d chunk %d)", next, to, from, chunk)
		}
		if chunk == 0 && n > 1 {
			t.Fatalf("chunk 0 gave %d spans, want the whole range in one", n)
		}
	})
}

// unquoteLabel reads back one label value from an exposition line the way
// a Prometheus parser does: the text between the quotes, \\ \" \n undone.
func unquoteLabel(t *testing.T, text, prefix string) string {
	t.Helper()
	_, rest, ok := strings.Cut(text, prefix+`"`)
	if !ok {
		t.Fatalf("exposition has no %s label:\n%s", prefix, text)
	}
	var b strings.Builder
	for i := 0; i < len(rest); i++ {
		switch c := rest[i]; {
		case c == '"':
			return b.String()
		case c == '\\' && i+1 < len(rest):
			i++
			if rest[i] == 'n' {
				b.WriteByte('\n')
			} else {
				b.WriteByte(rest[i])
			}
		default:
			b.WriteByte(c)
		}
	}
	t.Fatalf("unterminated label value after %s", prefix)
	return ""
}

// TestLabelEscapedOnce: the key-file grammar allows any non-space tenant
// name, and the name a scrape reads back must be that name. It used to be
// escaped by promEscape and then again by %q.
func TestLabelEscapedOnce(t *testing.T) {
	const name = `a"b\c`
	if got := unquoteLabel(t, api.Label("node", "x\ny"), "node="); got != "x\ny" {
		t.Fatalf("newline label read back %q", got)
	}
	_, cl := startAPI(t, api.Limits{Tenants: tenant.NewRegistry(nil, map[string]string{"k": name})})
	text := fetchMetrics(t, cl)
	if got := unquoteLabel(t, text, "vstore_tenant_requests_total{tenant="); got != name {
		t.Fatalf("tenant %q scraped back as %q", name, got)
	}
	if !strings.Contains(text, `vstore_tenant_requests_total{tenant="a\"b\\c"} 0`) {
		t.Fatalf("tenant sample not escaped exactly once:\n%s", text)
	}
}

// TestOversizedBodyRefused: no request type is near 1 MiB, so the shell
// refuses a larger body on every endpoint — as a 4xx, counted, nothing
// left in flight.
func TestOversizedBodyRefused(t *testing.T) {
	_, cl := startAPI(t, api.Limits{})
	body := `{"stream":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(cl.BaseURL+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body answered %d, want 413", resp.StatusCode)
	}
	st, err := cl.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if q := st.API["query"]; q.Requests != 1 || q.InFlight != 0 || q.Errors != 0 {
		t.Fatalf("oversized body accounting = %+v, want requests=1 in_flight=0", q)
	}
}

// TestStatsStoreKeySet pins the /v1/stats "store" object: the counters
// live with the layers that own them (kvstore, tier, server), and the
// wire object is still the same 33 flat names.
func TestStatsStoreKeySet(t *testing.T) {
	_, cl := startAPI(t, api.Limits{})
	resp, err := http.Get(cl.BaseURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw struct {
		Store map[string]any `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range raw.Store {
		got = append(got, k)
	}
	sort.Strings(got)
	want := strings.Fields(`ActiveSnapshots CacheBytes CacheEvictions CacheHits CacheMisses
		ColdKeys ColdLiveBytes ColdSegments CorruptReads DegradedServes Demotions ErosionPasses
		FastKeys FastLiveBytes FastSegments Files GarbageBytes IngestQueued Keys LiveBytes
		RepairPending Repairs RepairsFailed ResultsBytes ResultsEntries ResultsEvictions ResultsHits
		ResultsInvalidations ResultsMisses ScrubPasses Shards SnapshotsTaken TransientReads`)
	if len(want) != 33 || !reflect.DeepEqual(got, want) {
		t.Fatalf("store keys:\n got %v\nwant %v", got, want)
	}
}
