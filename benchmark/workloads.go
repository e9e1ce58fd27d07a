package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/frame"
	"repro/internal/query"
	"repro/internal/results"
	"repro/internal/retrieve"
	"repro/internal/server"
	"repro/internal/sub"
)

// A workload is one closed loop against the bed. All four are closed:
// VStore's callers are analysts and operators that wait for their reply.
type workload struct {
	name string
	run  func(b *bed, o runOptions) (*measurement, error)
}

// workloads is the benchmark, in the order a full run measures them.
// BENCHMARK.json and README.md say why each exists.
var workloads = []workload{
	{"scan_cold", runScanCold},
	{"retrieve_stream", runRetrieveStream},
	{"serve_warm", runServeWarm},
	{"live_ingest", runLiveIngest},
}

type runOptions struct {
	seconds float64
	seed    int64
	rec     *recorder // nil when tracing is off
}

// measurement is one run of one workload.
type measurement struct {
	attempted int
	failed    int
	videoS    float64 // seconds of video answered, delivered or ingested
	wallS     float64
	latMs     []float64
	prepareS  float64 // the workload's own set-up: budgets, server start, warm pass
	// counters are the per-layer metrics that only a workload run yields.
	counters map[string]float64
	firstErr error
}

// endToEnd returns the metrics a user of the system sees. setupS is the
// store set-up all workloads share; the workload's own preparation is
// added to it.
func (m *measurement) endToEnd(setupS float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          setupS + m.prepareS,
		"video_x_realtime": m.videoS / m.wallS,
		"op_p50_ms":        quantile(m.latMs, 0.5),
	}
}

// apiHandle is an in-process api.Server on a loopback port.
type apiHandle struct {
	srv  *api.Server
	url  string
	http *http.Client
}

func startAPI(s *server.Server) (*apiHandle, error) {
	a := api.New(s, api.Limits{})
	addr, err := a.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &apiHandle{srv: a, url: "http://" + addr.String(), http: &http.Client{}}, nil
}

func (h *apiHandle) client() *api.Client { return &api.Client{BaseURL: h.url, HTTP: h.http} }

func (h *apiHandle) stop() {
	h.http.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // the store outlives the listener; a late drain loses nothing
}

// clients is how many goroutines drive a workload: never more than the
// machine has processors, so the harness does not queue behind itself.
func clients() int { return runtime.GOMAXPROCS(0) }

// closedLoop runs op from n goroutines for o.seconds, each sending its next
// operation only when the previous one returned. op returns the seconds of
// video it covered; an error is a failed operation.
func closedLoop(name string, n int, o runOptions, op func(client int, rng *rand.Rand) (float64, error)) *measurement {
	type result struct {
		lat    []float64
		videoS float64
		failed int
		err    error
	}
	results := make([]result, n)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &results[c]
			rng := rand.New(rand.NewSource(o.seed*1009 + int64(c)))
			for time.Now().Before(deadline) {
				t0 := time.Now()
				v, err := op(c, rng)
				t1 := time.Now()
				o.rec.add("workload."+name, name+".op", "", t0, t1)
				r.lat = append(r.lat, float64(t1.Sub(t0).Nanoseconds())/1e6)
				if err != nil {
					r.failed++
					if r.err == nil {
						r.err = err
					}
					continue
				}
				r.videoS += v
			}
		}(c)
	}
	wg.Wait()
	m := &measurement{wallS: time.Since(start).Seconds()}
	runtime.ReadMemStats(&ms1)
	for _, r := range results {
		m.attempted += len(r.lat)
		m.failed += r.failed
		m.videoS += r.videoS
		m.latMs = append(m.latMs, r.lat...)
		if m.firstErr == nil {
			m.firstErr = r.err
		}
	}
	m.counters = processCounters(ms0, ms1, m)
	return m
}

// processCounters are the per-workload metrics every workload reports; the
// cache and admission ones are overwritten by the workloads they apply to.
func processCounters(ms0, ms1 runtime.MemStats, m *measurement) map[string]float64 {
	return map[string]float64{
		"proc.alloc_mb_per_op":     float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(max(m.attempted, 1)),
		"proc.gc_pause_ms":         float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
		"harness.ops":              float64(m.attempted),
		"harness.op_p90_ms":        quantile(m.latMs, 0.9),
		"harness.op_p99_ms":        quantile(m.latMs, 0.99),
		"retrieve.cache_hit_ratio": 0,
		"results.hit_ratio":        0,
		"results.evictions":        0,
		"api.admission_wait_ms":    0,
		"api.rejected":             0,
	}
}

// cacheReading is what the two caches have counted so far; a workload
// reports the difference of two readings.
type cacheReading struct {
	cache   retrieve.CacheStats
	results results.Stats
}

func readCaches(s *server.Server) cacheReading {
	return cacheReading{cache: s.CacheStats(), results: s.ResultsStats()}
}

func (m *measurement) countCaches(before, after cacheReading) {
	ratio := func(hits, misses int64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	m.counters["retrieve.cache_hit_ratio"] = ratio(after.cache.Hits-before.cache.Hits, after.cache.Misses-before.cache.Misses)
	m.counters["results.hit_ratio"] = ratio(after.results.Hits-before.results.Hits, after.results.Misses-before.results.Misses)
	m.counters["results.evictions"] = float64(after.results.Evictions - before.results.Evictions)
}

// countAdmission reads what /v1/stats reports about the gate after an HTTP
// workload.
func (m *measurement) countAdmission(h *apiHandle) error {
	st, err := h.client().Stats(context.Background())
	if err != nil {
		return err
	}
	m.counters["api.admission_wait_ms"] = st.Tenants["default"].Window.AvgWaitMs
	m.counters["api.rejected"] = float64(st.API["query"].Rejections)
	return nil
}

// runScanCold: nproc HTTP clients each repeat Query A over cam[0,segs) as
// one chunk, with nothing cached.
func runScanCold(b *bed, o runOptions) (*measurement, error) {
	t0 := time.Now()
	b.setBudgets(0, 0)
	h, err := startAPI(b.srv)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	req := api.QueryRequest{Stream: stream, Accuracy: queryAcc, To: b.segs}
	op := func(int, *rand.Rand) (float64, error) {
		chunks, _, err := h.client().Query(context.Background(), req)
		if err != nil {
			return 0, err
		}
		if hashChunks(chunks) != b.refs.scan {
			return 0, errors.New("scan_cold: detections differ from the reference")
		}
		return videoSeconds(b.segs), nil
	}
	_, _ = op(0, nil) // warm: connection, pools, page cache; a failure shows again in the loop
	prepareS := time.Since(t0).Seconds()
	before := readCaches(b.srv)
	m := closedLoop("scan_cold", clients(), o, op)
	m.prepareS = prepareS
	m.countCaches(before, readCaches(b.srv))
	return m, m.countAdmission(h)
}

// runServeWarm: nproc HTTP clients each ask Query A over a sub-range of cam
// drawn from their own seeded generator, one chunk per segment, with the
// cache and the results store large enough to hold everything and warmed.
func runServeWarm(b *bed, o runOptions) (*measurement, error) {
	t0 := time.Now()
	b.setBudgets(1<<30, 64<<20)
	h, err := startAPI(b.srv)
	if err != nil {
		return nil, err
	}
	defer h.stop()
	type rng struct{ from, to int }
	var ranges []rng
	for a := 0; a < b.segs; a++ {
		for z := a + 1; z <= b.segs; z++ {
			ranges = append(ranges, rng{a, z})
		}
	}
	ask := func(r rng) (float64, error) {
		chunks, _, err := h.client().Query(context.Background(),
			api.QueryRequest{Stream: stream, Accuracy: queryAcc, From: r.from, To: r.to, Chunk: 1})
		if err != nil {
			return 0, err
		}
		if len(chunks) != r.to-r.from {
			return 0, fmt.Errorf("serve_warm: %d chunks for [%d,%d)", len(chunks), r.from, r.to)
		}
		for i, c := range chunks {
			if hashChunks([]api.QueryChunk{c}) != b.refs.chunks[r.from+i] {
				return 0, fmt.Errorf("serve_warm: segment %d differs from the reference", r.from+i)
			}
		}
		return videoSeconds(r.to - r.from), nil
	}
	for _, r := range ranges { // warm every range before timing; a failure shows again in the loop
		_, _ = ask(r)
	}
	prepareS := time.Since(t0).Seconds()
	before := readCaches(b.srv)
	m := closedLoop("serve_warm", clients(), o, func(_ int, g *rand.Rand) (float64, error) {
		return ask(ranges[g.Intn(len(ranges))])
	})
	m.prepareS = prepareS
	m.countCaches(before, readCaches(b.srv))
	return m, m.countAdmission(h)
}

// retrieveBinding retrieves all of cam at one binding through a pinned
// snapshot and checksums what was delivered.
func retrieveBinding(ctx context.Context, snap *server.Snapshot, bd binding, segs int) (uint32, retrieve.Stats, error) {
	r := retrieve.Retriever{Store: snap}
	frames, st, err := r.RangeTagged(ctx, stream, bd.sf, bd.cf, 0, segs, nil, "")
	if err != nil {
		return 0, st, err
	}
	return checksumFrames(frames), st, nil
}

// runRetrieveStream: nproc workers each repeat one sweep: pin a snapshot,
// retrieve cam[0,segs) once per sweep binding in a seeded order, release.
func runRetrieveStream(b *bed, o runOptions) (*measurement, error) {
	t0 := time.Now()
	b.setBudgets(0, 0)
	sweep := func(order []int) (float64, error) {
		snap, err := b.srv.Snapshot()
		if err != nil {
			return 0, err
		}
		defer snap.Release()
		for _, i := range order {
			bd := b.sweep[i]
			sum, _, err := retrieveBinding(context.Background(), snap, bd, b.segs)
			if err != nil {
				return 0, err
			}
			if sum != b.refs.sweep[bd.name] {
				return 0, fmt.Errorf("retrieve_stream: frames of %s differ from the reference", bd.name)
			}
		}
		return videoSeconds(b.segs) * float64(len(order)), nil
	}
	_, _ = sweep(rand.New(rand.NewSource(o.seed)).Perm(len(b.sweep))) // warm; a failure shows again in the loop
	prepareS := time.Since(t0).Seconds()
	m := closedLoop("retrieve_stream", clients(), o, func(_ int, g *rand.Rand) (float64, error) {
		return sweep(g.Perm(len(b.sweep)))
	})
	m.prepareS = prepareS
	return m, nil
}

// liveRuns numbers the live streams of one process, so repeated runs on one
// bed never reuse a stream.
var liveRuns int

// runLiveIngest: one producer submits pre-rendered segments to a live
// stream until the time is up, then drains; one standing Query A on the
// same stream evaluates every commit. An operation is one segment, and its
// latency is commit to push. Both caches are smaller than what the run puts
// into them and nothing is read twice, so they insert and evict and never hit.
func runLiveIngest(b *bed, o runOptions) (*measurement, error) {
	t0 := time.Now()
	b.setBudgets(8<<20, 256<<10)
	pool := make([][]*frame.Frame, b.segs)
	for i := range pool {
		pool[i] = b.clip(i)
	}
	liveRuns++
	name := fmt.Sprintf("live%d", liveRuns)
	st, err := b.srv.StartStream(name)
	if err != nil {
		return nil, err
	}
	hub := sub.NewHub(b.srv, sub.HubOptions{})
	defer hub.Close()
	s, err := hub.Subscribe(sub.Request{Stream: name, Query: "A", Accuracy: queryAcc})
	if err != nil {
		return nil, err
	}
	prepareS := time.Since(t0).Seconds()

	before := readCaches(b.srv)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var pushes []sub.Push
	var latMs []float64
	var lastPush time.Time
	var outOfOrder int
	var orderErr error
	submitted := make(chan int) // the producer sends how many segments it submitted
	done := make(chan struct{})
	go func() { // the subscriber
		defer close(done)
		want := -1
		for want < 0 || len(pushes) < want {
			select {
			case p, ok := <-s.Out():
				if !ok {
					orderErr = fmt.Errorf("live_ingest: subscription ended: %v", s.Err())
					return
				}
				lastPush = time.Now()
				latMs = append(latMs, float64(lastPush.Sub(p.Enqueued).Nanoseconds())/1e6)
				o.rec.add("workload.live_ingest", "live_ingest.op", "", p.Enqueued, lastPush)
				if n := len(pushes); p.Dropped != 0 || p.Seg0 != n || (n > 0 && p.Seq <= pushes[n-1].Seq) {
					outOfOrder++
					orderErr = fmt.Errorf("live_ingest: push %d is seq %d seg %d dropped %d", n, p.Seq, p.Seg0, p.Dropped)
				}
				pushes = append(pushes, p)
			case n := <-submitted:
				want = n
			case <-time.After(30 * time.Second):
				orderErr = fmt.Errorf("live_ingest: %d pushes arrived, then none for 30 s", len(pushes))
				return
			}
		}
	}()
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	first := int(uint64(o.seed) % uint64(len(pool)))
	n := 0
	for ; time.Now().Before(deadline); n++ {
		if err := st.Submit(pool[(first+n)%len(pool)]); err != nil {
			return nil, err
		}
	}
	st.Drain()
	select {
	case submitted <- n:
		<-done
	case <-done: // the subscriber gave up; orderErr says why
	}
	if err := b.srv.StopStream(name); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	if len(pushes) == 0 {
		return nil, fmt.Errorf("live_ingest: no push arrived for %d segments: %v", n, orderErr)
	}
	m := &measurement{attempted: n, videoS: videoSeconds(n), wallS: lastPush.Sub(start).Seconds(), latMs: latMs, prepareS: prepareS}
	m.counters = processCounters(ms0, ms1, m)
	m.countCaches(before, readCaches(b.srv))
	m.firstErr = orderErr

	// Every push must equal the historical query over its segment, run
	// with one worker and nothing cached.
	b.setBudgets(0, 0)
	b.srv.QueryWorkers = -1
	defer func() { b.srv.QueryWorkers = 0 }()
	cascade, names, err := query.ByName("A")
	if err != nil {
		return nil, err
	}
	wrong := n - len(pushes) + outOfOrder // a missing or misplaced push is a failed segment
	for _, p := range pushes {
		ref, err := b.srv.Query(context.Background(), name, cascade, names, queryAcc, p.Seg0, p.Seg1)
		if err != nil {
			return nil, err
		}
		want := hashResult(p.Seg0, p.Seg1, ref)
		if b.corrupt {
			want ^= 1
		}
		if hashResult(p.Seg0, p.Seg1, p.Result) != want {
			wrong++
			if m.firstErr == nil {
				m.firstErr = fmt.Errorf("live_ingest: push for segment %d differs from the historical query", p.Seg0)
			}
		}
	}
	m.failed = min(wrong, n)
	return m, nil
}
