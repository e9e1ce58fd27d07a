package api_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/server"
	"repro/internal/sub"
)

// TestSubscribeHTTPLifecycle drives a standing query end to end over the
// wire: ack, one pushed chunk per committed segment — in commit order,
// byte-identical to the same span fetched with a historical query — stats
// surfacing, a rule's alert posted to its webhook, and a clean
// unsubscribe trailer.
func TestSubscribeHTTPLifecycle(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	// Cache off: a warm retrieval reports zero virtual retrieval cost, so
	// the historical comparison query would differ in the timing fields.
	srv.SetCacheBudget(0)
	ctx := context.Background()
	alerts := make(chan sub.Alert, 16)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var a sub.Alert
		if json.NewDecoder(r.Body).Decode(&a) == nil {
			select {
			case alerts <- a:
			default:
			}
		}
	}))
	defer hook.Close()

	acks := make(chan api.SubAck, 1)
	var mu sync.Mutex
	var chunks []api.QueryChunk
	var seqs []int64
	type outcome struct {
		sum api.SubSummary
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		sum, err := cl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam", Query: testQuery, Rules: []api.RuleSpec{
			{MinCount: 1, WindowSegments: 1, Webhook: hook.URL},
		}}, func(ev api.SubEvent) error {
			switch {
			case ev.Ack != nil:
				acks <- *ev.Ack
			case ev.Chunk != nil:
				mu.Lock()
				chunks = append(chunks, *ev.Chunk)
				seqs = append(seqs, ev.Seq)
				mu.Unlock()
				if ev.Dropped != 0 {
					return fmt.Errorf("push reports %d drops", ev.Dropped)
				}
			}
			return nil
		})
		done <- outcome{sum, err}
	}()
	var ack api.SubAck
	select {
	case ack = <-acks:
	case <-time.After(30 * time.Second):
		t.Fatal("no subscribe ack")
	}
	if ack.ID == "" || ack.Stream != "cam" {
		t.Fatalf("ack = %+v", ack)
	}

	// An unrelated stream's commits must not reach this subscriber; then
	// three segments on the subscribed stream arrive as three pushes.
	if _, err := cl.Ingest(ctx, api.IngestRequest{Stream: "other", Scene: "jackson", Segments: 1}); err != nil {
		t.Fatal(err)
	}
	const segments = 3
	if _, err := cl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: segments}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		mu.Lock()
		n := len(chunks)
		mu.Unlock()
		if n == segments {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d chunks, want %d", n, segments)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Live while subscribed: /v1/subs and /v1/stats both see it.
	subs, err := cl.Subs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if subs.Active != 1 || len(subs.Subs) != 1 || subs.Subs[0].ID != ack.ID ||
		subs.Subs[0].Stream != "cam" || subs.Subs[0].Delivered != segments {
		t.Fatalf("subs = %+v", subs)
	}
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Subs == nil || stats.Subs.Active != 1 || stats.Subs.Opened != 1 {
		t.Fatalf("stats.Subs = %+v", stats.Subs)
	}

	// Every pushed chunk is byte-identical to the same span fetched
	// post-hoc with a historical query, and arrived in commit order.
	for i, ch := range chunks {
		if ch.Seg0 != i || ch.Seg1 != i+1 {
			t.Fatalf("chunk %d covers [%d,%d)", i, ch.Seg0, ch.Seg1)
		}
		if i > 0 && seqs[i] <= seqs[i-1] {
			t.Fatalf("chunk %d seq %d after %d", i, seqs[i], seqs[i-1])
		}
		hist, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, From: i, To: i + 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(hist) != 1 {
			t.Fatalf("historical query returned %d chunks", len(hist))
		}
		if got, want := mustMarshal(t, ch), mustMarshal(t, hist[0]); got != want {
			t.Fatalf("pushed chunk %d differs from historical query:\n got %s\nwant %s", i, got, want)
		}
	}

	// The rule fires on a detecting segment, and its alert reaches the
	// webhook, not only the stream.
	select {
	case a := <-alerts:
		if a.SubID != ack.ID || a.Stream != "cam" || a.Count < 1 {
			t.Fatalf("webhook alert = %+v, want one for subscription %s on cam", a, ack.ID)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("no alert reached the webhook")
	}

	found, err := cl.Unsubscribe(ctx, ack.ID)
	if err != nil || !found {
		t.Fatalf("unsubscribe = %v, %v", found, err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("subscribe stream ended with %v", out.err)
	}
	if out.sum.Reason != "unsubscribed" || out.sum.Delivered != segments || out.sum.Dropped != 0 {
		t.Fatalf("summary = %+v", out.sum)
	}
	// The slot is gone: unknown IDs report not found.
	if found, err := cl.Unsubscribe(ctx, ack.ID); err != nil || found {
		t.Fatalf("double unsubscribe = %v, %v", found, err)
	}
}

// TestSubscribeHTTPDrain: a graceful server shutdown ends the standing
// connection with a "draining" trailer instead of a cut socket, and the
// drain completes promptly even though subscribe handlers never return on
// their own.
func TestSubscribeHTTPDrain(t *testing.T) {
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	addr, err := as.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := api.NewClient("http://" + addr.String())

	acks := make(chan api.SubAck, 1)
	type outcome struct {
		sum api.SubSummary
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		sum, err := cl.Subscribe(context.Background(), api.SubscribeRequest{Stream: "cam", Query: testQuery}, func(ev api.SubEvent) error {
			if ev.Ack != nil {
				acks <- *ev.Ack
			}
			return nil
		})
		done <- outcome{sum, err}
	}()
	select {
	case <-acks:
	case <-time.After(30 * time.Second):
		t.Fatal("no subscribe ack")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := as.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with a live subscription: %v", err)
	}
	out := <-done
	if out.err != nil {
		t.Fatalf("drained subscription ended with %v", out.err)
	}
	if out.sum.Reason != "draining" {
		t.Fatalf("summary = %+v, want draining", out.sum)
	}
}

// TestSubscribeHTTPAdmission: subscriptions are admitted against the
// dedicated MaxSubscriptions budget — overflow answers 429 with a
// Retry-After hint — and malformed requests answer 400.
func TestSubscribeHTTPAdmission(t *testing.T) {
	_, cl := startAPI(t, api.Limits{MaxSubscriptions: 1})
	ctx := context.Background()

	acks := make(chan api.SubAck, 1)
	done := make(chan error, 1)
	go func() {
		_, err := cl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam", Query: testQuery}, func(ev api.SubEvent) error {
			if ev.Ack != nil {
				acks <- *ev.Ack
			}
			return nil
		})
		done <- err
	}()
	var ack api.SubAck
	select {
	case ack = <-acks:
	case <-time.After(30 * time.Second):
		t.Fatal("no subscribe ack")
	}

	if _, err := cl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam", Query: testQuery}, nil); !api.IsRejected(err) {
		t.Fatalf("over-limit subscribe: %v, want 429", err)
	}
	for _, bad := range []api.SubscribeRequest{
		{},                               // missing stream
		{Stream: "cam", Policy: "block"}, // unknown policy
		{Stream: "cam", Query: "nope"},   // unknown query
		{Stream: "cam", Query: testQuery, Rules: []api.RuleSpec{{MinCount: 1, Webhook: "ftp://x"}}}, // non-http webhook
		{Stream: "cam", Query: testQuery, Rules: []api.RuleSpec{{MinCount: 0}}},                     // threshold below 1
		{Stream: "cam", Query: testQuery, Accuracy: 1.5},                                            // accuracy above 1
		{Stream: "cam", Query: testQuery, Accuracy: -0.1},                                           // accuracy below 0
	} {
		_, err := cl.Subscribe(ctx, bad, nil)
		se, ok := err.(*api.StatusError)
		if !ok || se.Code != http.StatusBadRequest {
			t.Fatalf("subscribe %+v: %v, want 400", bad, err)
		}
	}

	if found, err := cl.Unsubscribe(ctx, ack.ID); err != nil || !found {
		t.Fatalf("unsubscribe = %v, %v", found, err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first subscription ended with %v", err)
	}
	// The freed budget admits again.
	if _, err := cl.Subscribe(ctx, api.SubscribeRequest{Stream: "cam", Query: testQuery}, func(ev api.SubEvent) error {
		if ev.Ack != nil {
			go cl.Unsubscribe(ctx, ev.Ack.ID)
		}
		return nil
	}); err != nil {
		t.Fatalf("subscribe after freed slot: %v", err)
	}
}

// TestStreamTypedErrors pins the client's abnormal-end taxonomy against
// fake servers: an in-band error line becomes a *StreamError carrying the
// server's message, a stream cut before its trailer becomes a truncation,
// and both are distinguishable from status and transport errors.
func TestStreamTypedErrors(t *testing.T) {
	ctx := context.Background()
	serve := func(body string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprint(w, body)
		}))
	}

	ts := serve(`{"chunk":{"seg0":0,"seg1":1}}` + "\n" + `{"error":"stage blew up"}` + "\n")
	defer ts.Close()
	_, err := api.NewClient(ts.URL).QueryStream(ctx, api.QueryRequest{Stream: "cam"}, nil)
	if !api.IsStreamError(err) || api.IsTruncated(err) {
		t.Fatalf("in-band error: %v (stream=%v truncated=%v)", err, api.IsStreamError(err), api.IsTruncated(err))
	}
	se, ok := err.(*api.StreamError)
	if !ok || se.Msg != "stage blew up" {
		t.Fatalf("in-band error lost the server message: %v", err)
	}

	// A 200 stream that ends without its summary trailer — a killed server,
	// a dropped proxy — is a truncation, not a success with fewer chunks.
	ts2 := serve(`{"chunk":{"seg0":0,"seg1":1}}` + "\n")
	defer ts2.Close()
	n := 0
	_, err = api.NewClient(ts2.URL).QueryStream(ctx, api.QueryRequest{Stream: "cam"}, func(api.QueryChunk) error {
		n++
		return nil
	})
	if !api.IsTruncated(err) {
		t.Fatalf("truncated query stream: %v", err)
	}
	if n != 1 {
		t.Fatalf("delivered %d chunks before truncation", n)
	}

	// Same taxonomy on the subscription stream: ack then a cut connection.
	ts3 := serve(`{"ack":{"id":"s1","stream":"cam"}}` + "\n")
	defer ts3.Close()
	var sawAck bool
	_, err = api.NewClient(ts3.URL).Subscribe(ctx, api.SubscribeRequest{Stream: "cam"}, func(ev api.SubEvent) error {
		sawAck = ev.Ack != nil
		return nil
	})
	if !api.IsTruncated(err) || !sawAck {
		t.Fatalf("truncated subscribe stream: %v (ack=%v)", err, sawAck)
	}

	// And an in-band subscription error (the lag disconnect path).
	ts4 := serve(`{"ack":{"id":"s1","stream":"cam"}}` + "\n" + `{"error":"sub: subscriber lagged behind ingest"}` + "\n")
	defer ts4.Close()
	_, err = api.NewClient(ts4.URL).Subscribe(ctx, api.SubscribeRequest{Stream: "cam"}, nil)
	if !api.IsStreamError(err) || api.IsTruncated(err) {
		t.Fatalf("in-band subscribe error: %v", err)
	}

	// Status errors stay status errors.
	ts5 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusBadRequest)
	}))
	defer ts5.Close()
	_, err = api.NewClient(ts5.URL).QueryStream(ctx, api.QueryRequest{Stream: "cam"}, nil)
	if api.IsStreamError(err) {
		t.Fatalf("status error misclassified as stream error: %v", err)
	}
}

// TestStreamCutAtEveryByte cuts a valid chunk, chunk, done body at every
// byte offset, the server returning or aborting there: fn sees only the
// lines a newline ended, and the call fails as a truncation unless the
// cut falls after the trailer's newline.
func TestStreamCutAtEveryByte(t *testing.T) {
	lines := []string{`{"chunk":{"seg0":0,"seg1":1}}`, `{"chunk":{"seg0":1,"seg1":2}}`, `{"done":{"chunks":2,"segments":2}}`}
	body := strings.Join(lines, "\n") + "\n"
	var cut atomic.Int64
	var abort atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body[:cut.Load()])
		w.(http.Flusher).Flush()
		if abort.Load() {
			panic(http.ErrAbortHandler)
		}
	}))
	defer ts.Close()
	cl := api.NewClient(ts.URL)
	for i := range len(body) + 1 {
		for _, ab := range []bool{false, true} {
			cut.Store(int64(i))
			abort.Store(ab)
			var got []string
			err := cl.Stream(context.Background(), "/v1/query", api.QueryRequest{Stream: "cam"}, func(line []byte) (bool, error) {
				got = append(got, string(line))
				return strings.HasPrefix(string(line), `{"done"`), nil
			})
			whole := strings.Count(body[:i], "\n")
			if strings.Join(got, "\n") != strings.Join(lines[:whole], "\n") {
				t.Fatalf("cut at %d (abort %v): fn saw %q, want the %d whole lines", i, ab, got, whole)
			}
			if i == len(body) {
				if err != nil {
					t.Fatalf("whole body (abort %v): %v", ab, err)
				}
			} else if !api.IsTruncated(err) {
				t.Fatalf("cut at %d (abort %v): %v, want a truncation", i, ab, err)
			}
		}
	}
}
