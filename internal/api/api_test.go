package api_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/vidsim"
)

// testConfig derives a small two-operator configuration with erosion
// pressure, memoised across tests (derivation profiles operators, which
// is expensive under the race detector).
func testConfig(t testing.TB) *core.Config {
	t.Helper()
	cfgOnce.Do(func() { cfgShared = deriveTestConfig(t) })
	if cfgShared == nil {
		t.Fatal("config derivation failed in an earlier test")
	}
	return cfgShared
}

var (
	cfgOnce   sync.Once
	cfgShared *core.Config
)

func deriveTestConfig(t testing.TB) *core.Config {
	t.Helper()
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	consumers := []core.Consumer{
		{Op: ops.Motion{}, Target: 0.9, Prof: p},
		{Op: ops.License{}, Target: 0.9, Prof: p},
		{Op: ops.OCR{}, Target: 0.9, Prof: p}, // query B's final stage
	}
	choices := core.DeriveConsumptionFormats(consumers)
	d, err := core.DeriveStorageFormats(choices, core.SFOptions{Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
	const lifespan = 3
	golden := d.SFs[d.Golden].Prof.BytesPerSec * 86400
	floor := d.TotalBytesPerSec()*86400 + float64(lifespan-1)*golden
	full := d.TotalBytesPerSec() * 86400 * float64(lifespan)
	plan, err := core.PlanErosion(d, core.ErosionOptions{
		Profiler: p, LifespanDays: lifespan,
		StorageBudgetBytes: int64(floor + 0.3*(full-floor)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := &core.Config{Derivation: d, Erosion: plan}
	cfg.Runtime.CacheBytes = 32 << 20
	return cfg
}

// startAPI opens a configured store in a temp dir and serves it over a
// loopback listener. Cleanup drains the API and closes the store.
func startAPI(t *testing.T, lim api.Limits) (*server.Server, *api.Client) {
	t.Helper()
	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, lim)
	addr, err := as.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := as.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv, api.NewClient("http://" + addr.String())
}

const testQuery = "B" // Motion+License+OCR resolves against the test config

// mustMarshal pins "byte-identical": both sides of a comparison are
// serialised through the same wire struct.
func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHTTPQueryMatchesInProcess is the fidelity contract: the same query
// over the wire and in-process produces byte-identical results — for the
// whole-range execution and for the chunked streaming execution (compared
// against the same chunking on a pinned snapshot).
func TestHTTPQueryMatchesInProcess(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	// Cache off: a warm retrieval reports zero virtual retrieval cost, so
	// whichever transport ran second would differ in the timing fields.
	// With it off, every field of the wire struct must match exactly.
	srv.SetCacheBudget(0)
	ctx := context.Background()
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	cascade, names, err := query.ByName(testQuery)
	if err != nil {
		t.Fatal(err)
	}

	// Whole range in one chunk: exactly Server.Query.
	chunks, sum, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 || sum.Segments != 3 || sum.Chunks != 1 {
		t.Fatalf("whole-range query: %d chunks, summary %+v", len(chunks), sum)
	}
	ref, err := srv.Query(ctx, "cam", cascade, names, 0.9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, chunks[0]), mustMarshal(t, api.ChunkFromResult(0, 3, ref)); got != want {
		t.Fatalf("HTTP result differs from in-process:\n got %s\nwant %s", got, want)
	}

	// Segment-by-segment streaming: byte-identical to the same chunked
	// execution against one pinned snapshot.
	chunks, sum, err = cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 || sum.Chunks != 3 {
		t.Fatalf("chunked query: %d chunks, summary %+v", len(chunks), sum)
	}
	snap, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	for i, ch := range chunks {
		res, err := srv.QueryAt(ctx, snap, "cam", cascade, names, 0.9, i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := mustMarshal(t, ch), mustMarshal(t, api.ChunkFromResult(i, i+1, res)); got != want {
			t.Fatalf("chunk %d differs from in-process:\n got %s\nwant %s", i, got, want)
		}
	}

	// The rest of the read surface.
	streams, err := cl.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if streams["cam"].Segments != 3 {
		t.Fatalf("streams: %+v", streams)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.API["query"].Requests < 2 || st.Store.Keys == 0 {
		t.Fatalf("stats: api=%+v store keys=%d", st.API["query"], st.Store.Keys)
	}
	if h, err := cl.Healthz(ctx); err != nil || !h.OK {
		t.Fatalf("healthz: %+v, %v", h, err)
	}
}

// TestHTTPLifecycleEndpoints drives ingest, demote, compact and erode
// over the wire against a store with erosion pressure.
func TestHTTPLifecycleEndpoints(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	ctx := context.Background()

	ing, err := cl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ing.Segments != 3 || ing.Bytes == 0 {
		t.Fatalf("ingest: %+v", ing)
	}
	if srv.SegmentsOf("cam") != 3 {
		t.Fatalf("store has %d segments", srv.SegmentsOf("cam"))
	}
	if _, err := cl.Demote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	eroded, err := cl.Erode(ctx, 4) // old enough for the pressure plan to bite
	if err != nil {
		t.Fatal(err)
	}
	if eroded == 0 {
		t.Fatal("erosion pass with pressure eroded nothing")
	}
	if err := cl.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	// Bad requests are 400s, not 500s.
	if _, _, err := cl.Query(ctx, api.QueryRequest{Query: testQuery}); err == nil {
		t.Fatal("query without stream accepted")
	} else if se := new(api.StatusError); !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("missing-stream error = %v", err)
	}
	if _, err := cl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "no-such-scene", Segments: 1}); err == nil {
		t.Fatal("unknown scene accepted")
	}
}

// TestAdmissionControl pins the 429 path deterministically on a 1-slot,
// 1-waiter server: a slow ingest holds the execution slot, a queued query
// takes the waiting-room seat, and the next request is rejected with the
// configured Retry-After hint — while both admitted requests complete.
// A follow-up burst shows saturation never deadlocks: every request either
// completes or is rejected.
func TestAdmissionControl(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{MaxInFlight: 1, MaxQueue: 1, RetryAfter: 2 * time.Second})
	srv.SetCacheBudget(0) // keep queries doing real retrieval work
	ctx := context.Background()
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}

	// waitStats polls /v1/stats until cond holds. Nothing the steps below
	// wait for is ordered with a client call returning — the gate grants
	// and parks after arrival, and route settles its in-flight count after
	// the response is flushed — so each is awaited, not slept for.
	waitStats := func(what string, cond func(api.StatsResponse) bool) api.StatsResponse {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for {
			st, err := cl.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("never observed: %s (last stats: api %+v, gate %+v)", what, st.API, st.Tenants["default"].Gate)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 1. Occupy the execution slot with a multi-segment ingest (the gate
	// is shared: mixed query/ingest load admits against one budget).
	holderDone := make(chan error, 1)
	go func() {
		_, err := cl.Ingest(ctx, api.IngestRequest{Stream: "cam", Scene: "jackson", Segments: 4})
		holderDone <- err
	}()
	waitStats("the ingest holding the slot", func(st api.StatsResponse) bool {
		return st.Tenants["default"].Gate.InFlight == 1
	})

	// 2. Fill the waiting room with a query.
	queuedDone := make(chan error, 1)
	go func() {
		_, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
		queuedDone <- err
	}()
	waitStats("the query parked in the waiting room", func(st api.StatsResponse) bool {
		return st.Tenants["default"].Gate.Queued == 1
	})

	// 3. Slot busy, waiting room full: the next request gets 429.
	_, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
	if !api.IsRejected(err) {
		t.Fatalf("saturated server answered %v, want 429", err)
	}
	se := new(api.StatusError)
	if !errors.As(err, &se) || se.RetryAfter != 2*time.Second {
		t.Fatalf("Retry-After hint = %+v", se)
	}

	// 4. Both admitted requests complete; the rejection is counted.
	if err := <-holderDone; err != nil {
		t.Fatalf("slot-holding ingest: %v", err)
	}
	if err := <-queuedDone; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	st := waitStats("both endpoints quiescent", func(st api.StatsResponse) bool {
		return st.API["query"].InFlight == 0 && st.API["ingest"].InFlight == 0
	})
	if st.API["query"].Rejections != 1 {
		t.Fatalf("query rejections = %d, want 1", st.API["query"].Rejections)
	}

	// 5. Burst: 8 simultaneous queries against the 1+1 server must all
	// either complete or be rejected — no deadlock, no pileup.
	var (
		wg           sync.WaitGroup
		mu           sync.Mutex
		ok, rejected int
	)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cl.Query(ctx, api.QueryRequest{Stream: "cam", Query: testQuery})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case api.IsRejected(err):
				rejected++
			default:
				t.Errorf("burst query: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 || ok+rejected != 8 {
		t.Fatalf("burst: %d ok, %d rejected of 8", ok, rejected)
	}
}

// TestQueryCancellation covers the disconnecting client: canceling the
// request context mid-stream releases the execution slot promptly (the
// engine observes ctx between per-segment batches) instead of decoding
// the rest of the span.
func TestQueryCancellation(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{MaxInFlight: 1, MaxQueue: 0})
	srv.SetCacheBudget(0) // cold retrievals keep the stream long enough to cancel
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 8); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := cl.QueryStream(ctx, api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1},
		func(api.QueryChunk) error {
			cancel() // disconnect after the first chunk arrives
			return nil
		})
	if err == nil {
		t.Fatal("canceled query succeeded")
	}
	// The slot must come free: a fresh query on the 1-slot server succeeds
	// once the canceled one unwinds.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, _, err := cl.Query(context.Background(), api.QueryRequest{Stream: "cam", Query: testQuery, To: 1})
		if err == nil {
			break
		}
		if !api.IsRejected(err) {
			t.Fatalf("post-cancel query: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled query never released its execution slot")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestServerSideTimeout: a query whose timeout_ms expires mid-run ends
// with an in-band error line, not a hung connection. Chunked execution
// over several cold segments gives the deadline check (between
// per-segment batches) plenty of opportunities to trip on a fast host.
func TestServerSideTimeout(t *testing.T) {
	srv, cl := startAPI(t, api.Limits{})
	srv.SetCacheBudget(0)
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 8); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.Query(context.Background(),
		api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1, TimeoutMs: 1})
	if err == nil {
		t.Fatal("1ms query over 8 cold segments succeeded")
	}
	if api.IsRejected(err) {
		t.Fatalf("timeout surfaced as rejection: %v", err)
	}
}

// TestGracefulDrain proves the shutdown contract: in-flight queries
// finish (their streams complete with a summary), new requests are
// refused, snapshots are released, and — with the store closed — no
// goroutines leak.
func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := server.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Reconfigure(testConfig(t)); err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := srv.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	as := api.New(srv, api.Limits{})
	addr, err := as.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := api.NewClient("http://" + addr.String())

	// A query in flight when Shutdown begins must run to completion.
	firstChunk := make(chan struct{})
	queryDone := make(chan error, 1)
	go func() {
		seen := false
		sum, err := cl.QueryStream(context.Background(),
			api.QueryRequest{Stream: "cam", Query: testQuery, Chunk: 1},
			func(api.QueryChunk) error {
				if !seen {
					seen = true
					close(firstChunk)
				}
				return nil
			})
		if err == nil && sum.Chunks != 3 {
			err = fmt.Errorf("drained query saw %d chunks", sum.Chunks)
		}
		queryDone <- err
	}()
	<-firstChunk

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := as.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-queryDone; err != nil {
		t.Fatalf("in-flight query during drain: %v", err)
	}
	// Refused after drain: the listener is gone.
	if _, err := cl.Healthz(context.Background()); err == nil {
		t.Fatal("request accepted after shutdown")
	}
	if st := srv.Stats(); st.ActiveSnapshots != 0 {
		t.Fatalf("drain left %d active snapshots", st.ActiveSnapshots)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// All serving goroutines unwound (allow the runtime a moment and a
	// little slack for the test framework's own).
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(),
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestConcurrentServeOverHTTP is the live-traffic test: concurrent
// queries, ingest and erosion passes all over HTTP under the race
// detector, with only 429s permitted as failures, and the final state
// deterministic: two identical queries at the end agree byte-for-byte. A
// standing subscription held across the load sees every segment committed
// while it was live exactly once, in commit order, with nothing dropped.
func TestConcurrentServeOverHTTP(t *testing.T) {
	_, cl := startAPI(t, api.Limits{MaxInFlight: 4, MaxQueue: 8})
	ctx := context.Background()

	// Seed both streams so queriers have footage immediately.
	for _, stream := range []string{"camA", "camB"} {
		if _, err := cl.Ingest(ctx, api.IngestRequest{Stream: stream, Scene: "jackson", Segments: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// The subscription registers before the load: nothing commits between
	// its ack and base, so its pushes must be exactly [base, final).
	type outcome struct {
		sum api.SubSummary
		err error
	}
	acks, pushes, subDone := make(chan string, 1), make(chan api.SubEvent, 64), make(chan outcome, 1)
	go func() {
		sum, err := cl.Subscribe(ctx, api.SubscribeRequest{Stream: "camA", Query: testQuery}, func(ev api.SubEvent) error {
			if ev.Ack != nil {
				acks <- ev.Ack.ID
			} else if ev.Chunk != nil {
				pushes <- ev
			}
			return nil
		})
		subDone <- outcome{sum, err}
	}()
	var subID string
	select {
	case subID = <-acks:
	case out := <-subDone:
		t.Fatalf("subscription ended before its ack: %v", out.err)
	case <-time.After(30 * time.Second):
		t.Fatal("no subscribe ack")
	}
	streams, err := cl.Streams(ctx)
	if err != nil {
		t.Fatal(err)
	}
	base := streams["camA"].Segments

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Ingesters: grow each stream while queries run.
	for _, stream := range []string{"camA", "camB"} {
		stream := stream
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				_, err := cl.Ingest(ctx, api.IngestRequest{Stream: stream, Scene: "jackson", Segments: 1})
				if err != nil && !api.IsRejected(err) {
					errs <- fmt.Errorf("ingest %s: %w", stream, err)
					return
				}
			}
		}()
	}
	// Queriers: stream chunked queries over whatever is committed.
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			streams := []string{"camA", "camB"}
			for iter := 0; iter < 3; iter++ {
				stream := streams[(w+iter)%2]
				_, _, err := cl.Query(ctx, api.QueryRequest{Stream: stream, Query: testQuery, Chunk: 1})
				if err != nil && !api.IsRejected(err) {
					errs <- fmt.Errorf("query %s: %w", stream, err)
					return
				}
			}
		}()
	}
	// Eroder: periodic passes, exactly what a daemon would issue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if _, err := cl.Erode(ctx, 2); err != nil {
				errs <- fmt.Errorf("erode: %w", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if streams, err = cl.Streams(ctx); err != nil {
		t.Fatal(err)
	}
	final, seen, lastSeq := streams["camA"].Segments, map[int]bool{}, int64(-1)
	for len(seen) < final-base {
		select {
		case ev := <-pushes:
			c := ev.Chunk
			if ev.Seq <= lastSeq || ev.Dropped != 0 || c.Seg1 != c.Seg0+1 || c.Seg0 < base || c.Seg0 >= final || seen[c.Seg0] {
				t.Fatalf("push seq %d (after %d, %d dropped) covers [%d,%d); want each of [%d,%d) once, in commit order",
					ev.Seq, lastSeq, ev.Dropped, c.Seg0, c.Seg1, base, final)
			}
			seen[c.Seg0], lastSeq = true, ev.Seq
		case <-time.After(60 * time.Second):
			t.Fatalf("received %d of the %d pushes for [%d,%d)", len(seen), final-base, base, final)
		}
	}
	if found, err := cl.Unsubscribe(ctx, subID); err != nil || !found {
		t.Fatalf("unsubscribe = %v, %v", found, err)
	}
	if out := <-subDone; out.err != nil || out.sum.Reason != "unsubscribed" || out.sum.Dropped != 0 || out.sum.Delivered != int64(final-base) {
		t.Fatalf("subscription ended with %+v, %v; want %d delivered, none dropped", out.sum, out.err, final-base)
	}

	// Quiesced: the store must answer deterministically. One warming run
	// first, so both compared queries see the same (fully warm) cache and
	// their virtual timing fields agree too.
	if _, _, err := cl.Query(ctx, api.QueryRequest{Stream: "camA", Query: testQuery, Chunk: 1}); err != nil {
		t.Fatal(err)
	}
	a, _, err := cl.Query(ctx, api.QueryRequest{Stream: "camA", Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := cl.Query(ctx, api.QueryRequest{Stream: "camA", Query: testQuery, Chunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, a), mustMarshal(t, b); got != want {
		t.Fatalf("repeated quiescent queries disagree:\n%s\n%s", got, want)
	}
}
