package api_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/vidsim"
)

// wireReplica is one replica of a /v1/replicas body: its header, its
// bytes, and where its header line starts and its bytes end in the body.
type wireReplica struct {
	api.ReplicaLine
	body       []byte
	start, end int
}

// parseReplicas reads a whole /v1/replicas body apart from the follower's
// reader: every replica, and whether a Done line ended the body.
func parseReplicas(t *testing.T, b []byte) (reps []wireReplica, done bool) {
	t.Helper()
	for off := 0; off < len(b); {
		nl := bytes.IndexByte(b[off:], '\n')
		if nl < 0 {
			t.Fatalf("unterminated header line at byte %d", off)
		}
		var l api.ReplicaLine
		if err := json.Unmarshal(b[off:off+nl], &l); err != nil {
			t.Fatalf("header at byte %d: %v", off, err)
		}
		switch {
		case l.Error != "":
			t.Fatalf("in-band error at byte %d: %s", off, l.Error)
		case l.Done:
			if off+nl+1 != len(b) {
				t.Fatalf("%d bytes after the trailer", len(b)-off-nl-1)
			}
			return reps, true
		}
		body := off + nl + 1
		if body+l.N > len(b) {
			t.Fatalf("replica at byte %d declares %d bytes, %d left", off, l.N, len(b)-body)
		}
		reps = append(reps, wireReplica{ReplicaLine: l, body: b[body : body+l.N], start: off, end: body + l.N})
		off = body + l.N
	}
	return reps, false
}

// localReplicas reads every committed replica of the stream through a
// local snapshot, in the framing /v1/replicas sends, and releases it.
func localReplicas(t *testing.T, srv *server.Server, stream string) map[segment.Ref][]byte {
	t.Helper()
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	out := map[segment.Ref][]byte{}
	for _, ref := range snap.RefsOf(stream, 0) {
		if ref.Raw {
			frames, _, err := snap.GetRawRef(ref)
			if err != nil {
				t.Fatalf("%v: %v", ref, err)
			}
			out[ref] = segment.MarshalRawSegment(frames)
			continue
		}
		enc, err := snap.GetEncodedRef(ref)
		if err != nil {
			t.Fatalf("%v: %v", ref, err)
		}
		out[ref] = enc.Marshal()
	}
	return out
}

// replicaProxy fronts a source node: it counts every request it relays
// and keeps each /v1/replicas body whole, relaying only the first cut(body)
// bytes of it when cut is set.
type replicaProxy struct {
	mu       sync.Mutex
	requests int
	bodies   [][]byte
	cut      func(body []byte) int
}

func startReplicaProxy(t *testing.T, source string) (*replicaProxy, string) {
	t.Helper()
	u, err := url.Parse(source)
	if err != nil {
		t.Fatal(err)
	}
	p := &replicaProxy{}
	rp := httputil.NewSingleHostReverseProxy(u)
	rp.ModifyResponse = func(resp *http.Response) error {
		if resp.Request.URL.Path != "/v1/replicas" {
			return nil
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		p.bodies = append(p.bodies, b)
		if p.cut != nil {
			b = b[:p.cut(b)]
		}
		resp.Body = io.NopCloser(bytes.NewReader(b))
		resp.ContentLength = int64(len(b))
		resp.Header.Del("Content-Length")
		return nil
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.mu.Lock()
		p.requests++
		p.mu.Unlock()
		rp.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return p, hs.URL
}

func (p *replicaProxy) setCut(cut func(body []byte) int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut = cut
}

// counts returns the requests relayed so far and the last replicas body.
func (p *replicaProxy) counts() (int, []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.bodies) == 0 {
		return p.requests, nil
	}
	return p.requests, p.bodies[len(p.bodies)-1]
}

// erodeOnFirstWrite runs erode at the handler's first body write: after
// the handler pinned its snapshot and read its first replica, before it
// reads the rest.
type erodeOnFirstWrite struct {
	*httptest.ResponseRecorder
	erode func()
}

func (w *erodeOnFirstWrite) Write(p []byte) (int, error) {
	if w.erode != nil {
		w.erode()
		w.erode = nil
	}
	return w.ResponseRecorder.Write(p)
}

// TestReplicasKeepPinnedBytes: the request's own pin keeps the replicas it
// streams readable. Erosion runs at the response's first write, and every
// streamed replica is byte-identical to what a snapshot pinned before the
// erosion read, eroded replicas read after that write included.
func TestReplicasKeepPinnedBytes(t *testing.T) {
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	want := localReplicas(t, srv, "cam")

	rec := &erodeOnFirstWrite{ResponseRecorder: httptest.NewRecorder(), erode: func() {
		if n, err := srv.Erode("cam", func(idx int) int { return 3 - idx }); err != nil || n == 0 {
			t.Errorf("erosion deleted %d replicas (err %v); the check needs some", n, err)
		}
	}}
	req := httptest.NewRequest(http.MethodPost, "/v1/replicas", strings.NewReader(`{"stream":"cam","from":0}`))
	api.New(srv, api.Limits{}).Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	reps, done := parseReplicas(t, rec.Body.Bytes())
	if !done || len(reps) != len(want) {
		t.Fatalf("streamed %d replicas (trailer %v), want %d and the trailer", len(reps), done, len(want))
	}
	live := localReplicas(t, srv, "cam")
	erodedLater := false
	for i, r := range reps {
		ref := segment.Ref{Stream: "cam", SFKey: r.SF, Raw: r.Raw, Idx: r.Idx}
		if !bytes.Equal(r.body, want[ref]) {
			t.Fatalf("%v: streamed bytes differ from the pinned snapshot's", ref)
		}
		if i > 0 && (reps[i-1].Idx > r.Idx || reps[i-1].Idx == r.Idx && reps[i-1].SF >= r.SF) {
			t.Fatalf("replica %d (%v) out of (index, format) order", i, ref)
		}
		if _, ok := live[ref]; !ok && i > 0 {
			erodedLater = true
		}
	}
	if !erodedLater {
		t.Fatal("no replica streamed after the first write was eroded; the check saw nothing")
	}
}

// TestPullTruncated: a replicas body cut in the middle of a replica, or at
// a segment boundary with no trailer, fails the pull, and the follower
// adopts only the segments a later line followed. A clean pull then
// completes the stream.
func TestPullTruncated(t *testing.T) {
	srvA, clA := startAPI(t, api.Limits{})
	srvB, clB := startAPI(t, api.Limits{})
	srvA.SetCacheBudget(0)
	srvB.SetCacheBudget(0)
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srvA.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	proxy, source := startReplicaProxy(t, clA.BaseURL)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		cut  func(reps []wireReplica) int
		want int // the follower's length after the cut pull
	}{
		// From 0: half of index 1's first replica arrives, so only index
		// 0 is followed by a later line.
		{"mid-replica", func(reps []wireReplica) int {
			i := slices.IndexFunc(reps, func(r wireReplica) bool { return r.Idx == 1 })
			return reps[i].end - reps[i].N/2
		}, 1},
		// From 1: indices 1 and 2 arrive whole, but no trailer follows 2.
		{"no-trailer", func(reps []wireReplica) int { return reps[len(reps)-1].end }, 2},
	} {
		proxy.setCut(func(body []byte) int {
			reps, _ := parseReplicas(t, body)
			return c.cut(reps)
		})
		_, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: source})
		if se := new(api.StatusError); !errors.As(err, &se) || !strings.Contains(se.Msg, "truncated") {
			t.Fatalf("%s: pull returned %v, want a truncation", c.name, err)
		}
		if n := srvB.StreamSegments()["cam"]; n != c.want {
			t.Fatalf("%s: follower length %d after the cut pull, want %d", c.name, n, c.want)
		}
	}
	proxy.setCut(nil)
	pulled, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: source})
	if err != nil || pulled.Segments != 1 {
		t.Fatalf("clean re-pull adopted %d segments (err %v), want 1", pulled.Segments, err)
	}
	ca, _, err := clA.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := clB.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if l, r := mustMarshal(t, ca), mustMarshal(t, cb); l != r {
		t.Fatalf("follower answers differently after the cut pulls:\nowner    %s\nfollower %s", l, r)
	}
}

// TestPullCostFlat: a pull costs the source one request and the replicas
// past the follower's length, whatever the stream's length. Ingesting one
// segment before each of four pulls, every pull carries one segment's
// replicas, and the fourth's bytes are within one segment's of the first's.
func TestPullCostFlat(t *testing.T) {
	srvA, clA := startAPI(t, api.Limits{})
	_, clB := startAPI(t, api.Limits{})
	sc, _ := vidsim.DatasetByName("jackson")
	proxy, source := startReplicaProxy(t, clA.BaseURL)
	ctx := context.Background()
	var firstReplicas, firstBytes, firstPayload int
	for k := 1; k <= 4; k++ {
		if _, err := srvA.Ingest(sc, "cam", 1); err != nil {
			t.Fatal(err)
		}
		before, _ := proxy.counts()
		pulled, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: source})
		if err != nil || pulled.Segments != 1 {
			t.Fatalf("pull %d adopted %d segments (err %v), want 1", k, pulled.Segments, err)
		}
		after, body := proxy.counts()
		if after-before != 1 {
			t.Fatalf("pull %d cost the source %d requests, want 1", k, after-before)
		}
		reps, done := parseReplicas(t, body)
		payload := 0
		for _, r := range reps {
			if r.Idx != k-1 {
				t.Fatalf("pull %d streamed index %d, want only %d", k, r.Idx, k-1)
			}
			payload += r.N
		}
		if !done || len(reps) == 0 {
			t.Fatalf("pull %d streamed %d replicas (trailer %v)", k, len(reps), done)
		}
		if k == 1 {
			firstReplicas, firstBytes, firstPayload = len(reps), len(body), payload
			continue
		}
		if len(reps) != firstReplicas {
			t.Fatalf("pull %d streamed %d replicas, pull 1 %d", k, len(reps), firstReplicas)
		}
		if k == 4 && (len(body) > firstBytes+firstPayload || len(body) < firstBytes-firstPayload) {
			t.Fatalf("pull 4 sent %d bytes, pull 1 %d: more than one segment's %d apart", len(body), firstBytes, firstPayload)
		}
	}
}

// TestConcurrentPullsAdoptOnce: two pulls of one stream at once on one
// follower commit each index exactly once, in ascending order — a pull
// waits for the stream's previous pull, then starts from its end.
func TestConcurrentPullsAdoptOnce(t *testing.T) {
	srvA, clA := startAPI(t, api.Limits{})
	srvB, clB := startAPI(t, api.Limits{})
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srvA.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []int
	cancel := srvB.SubscribeCommits(func(c segment.Commit) {
		mu.Lock()
		defer mu.Unlock()
		if c.Stream == "cam" {
			seen = append(seen, c.Idx)
		}
	})
	defer cancel()
	var wg sync.WaitGroup
	adopted := make([]int, 2)
	errs := make([]error, 2)
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := clB.Pull(context.Background(), api.PullRequest{Stream: "cam", Source: clA.BaseURL})
			adopted[i], errs[i] = resp.Segments, err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if adopted[0]+adopted[1] != 3 || !slices.Equal(seen, []int{0, 1, 2}) {
		t.Fatalf("pulls adopted %v segments, commits seen %v; want 3 in all, each index once in order", adopted, seen)
	}
}

// TestPullReplication: a follower pulls a stream from its owner and then
// answers the same queries byte-identically; re-pulling is a no-op.
func TestPullReplication(t *testing.T) {
	srvA, clA := startAPI(t, api.Limits{})
	srvB, clB := startAPI(t, api.Limits{})
	srvA.SetCacheBudget(0)
	srvB.SetCacheBudget(0)
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srvA.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	pulled, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: clA.BaseURL})
	if err != nil {
		t.Fatal(err)
	}
	if pulled.Segments != 3 {
		t.Fatalf("pull adopted %d segments, want 3", pulled.Segments)
	}
	again, err := clB.Pull(ctx, api.PullRequest{Stream: "cam", Source: clA.BaseURL})
	if err != nil {
		t.Fatal(err)
	}
	if again.Segments != 0 {
		t.Fatalf("re-pull adopted %d segments, want 0 (idempotent)", again.Segments)
	}

	// The replica serves the same results as the original.
	ca, _, err := clA.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	cb, _, err := clB.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if l, r := mustMarshal(t, ca), mustMarshal(t, cb); l != r {
		t.Fatalf("replica answers differently:\nowner    %s\nfollower %s", l, r)
	}

	// The pull survives a reopen: the stream position was persisted.
	if n := srvB.StreamSegments()["cam"]; n != 3 {
		t.Fatalf("follower stream length %d, want 3", n)
	}
}

// TestDrainRetryAfter is the 503 regression: a draining server's refusals
// must carry the same Retry-After backoff hint a 429 does, and the client
// must surface it.
func TestDrainRetryAfter(t *testing.T) {
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	hs := httptest.NewServer(as.Handler())
	defer hs.Close()
	// Shutdown of a handler-mounted server flips the drain flag and
	// returns; the handler keeps answering 503.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := as.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	cl := api.NewClient(hs.URL)
	_, _, err = cl.Query(context.Background(), api.QueryRequest{Stream: "cam"})
	if err == nil {
		t.Fatal("query during drain succeeded")
	}
	if !api.IsUnavailable(err) {
		t.Fatalf("drain refusal not classified unavailable: %v", err)
	}
	if api.IsRejected(err) {
		t.Fatalf("drain refusal misclassified as 429: %v", err)
	}
	hint, ok := api.RetryAfterHint(err)
	if !ok || hint < time.Second {
		t.Fatalf("drain refusal carries no usable Retry-After (hint=%v ok=%v): %v", hint, ok, err)
	}
}
