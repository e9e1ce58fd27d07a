package server

import (
	"context"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/ops"
	"repro/internal/query"
	"repro/internal/vidsim"
)

// setupQueryServer builds a server with two configuration epochs and two
// ingested segments per epoch, so parallel queries exercise both span-level
// and segment-level fan-out.
func setupQueryServer(t testing.TB) *Server {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	sc, err := vidsim.DatasetByName("jackson")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "jackson", []ops.Operator{ops.Diff{}, ops.SNN{}, ops.NN{}}, []float64{0.9})
	// Two epochs of the same configuration: Reconfigure always opens a new
	// epoch, so the 4-segment query still splits into two spans.
	for epoch := 0; epoch < 2; epoch++ {
		if err := s.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(sc, "cam", 2); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestParallelQueryDeterminism asserts the paper-facing invariant of the
// parallel engine: whatever the worker count, a query returns exactly the
// sequential path's detections and consumed-frame timeline.
func TestParallelQueryDeterminism(t *testing.T) {
	s := setupQueryServer(t)
	opNames := []string{"Diff", "S-NN", "NN"}

	s.QueryWorkers = -1 // force sequential: the reference output
	ref, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Results) != 2 {
		t.Fatalf("expected 2 epoch spans, got %d", len(ref.Results))
	}
	for _, workers := range []int{1, 2, 8} {
		s.QueryWorkers = workers
		got, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Results) != len(ref.Results) {
			t.Fatalf("workers=%d: %d spans, want %d", workers, len(got.Results), len(ref.Results))
		}
		for i := range ref.Results {
			if !reflect.DeepEqual(got.Results[i].Detections, ref.Results[i].Detections) {
				t.Fatalf("workers=%d span %d: detections differ from sequential", workers, i)
			}
			if !reflect.DeepEqual(got.Results[i].FinalPTS, ref.Results[i].FinalPTS) {
				t.Fatalf("workers=%d span %d: final PTS differ from sequential", workers, i)
			}
			if got.Results[i].VirtualSeconds != ref.Results[i].VirtualSeconds {
				t.Fatalf("workers=%d span %d: virtual seconds %v != %v",
					workers, i, got.Results[i].VirtualSeconds, ref.Results[i].VirtualSeconds)
			}
		}
	}
}

// TestQueryCacheHitsAndDeterminism asserts repeated queries hit the cache,
// the counters surface through Server.Stats, and cached results are
// identical to uncached ones.
func TestQueryCacheHitsAndDeterminism(t *testing.T) {
	s := setupQueryServer(t)
	opNames := []string{"Diff", "S-NN", "NN"}

	cold, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Hits != 0 || cs.Misses != 0 {
		t.Fatalf("cache active before enablement: %+v", cs)
	}

	s.SetCacheBudget(1 << 30)
	warmup, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.CacheStats()
	if cs.Misses == 0 || cs.Bytes == 0 {
		t.Fatalf("cold cached query populated nothing: %+v", cs)
	}
	warm, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs = s.CacheStats()
	if cs.Hits == 0 {
		t.Fatalf("repeated query had no cache hits: %+v", cs)
	}
	for i := range cold.Results {
		for _, r := range []QueryResult{warmup, warm} {
			if !reflect.DeepEqual(r.Results[i].Detections, cold.Results[i].Detections) {
				t.Fatalf("span %d: cached detections differ from uncached", i)
			}
			if !reflect.DeepEqual(r.Results[i].FinalPTS, cold.Results[i].FinalPTS) {
				t.Fatalf("span %d: cached final PTS differ from uncached", i)
			}
		}
	}
	// The counters must surface through the storage-path stats.
	st := s.Stats()
	if st.CacheHits != cs.Hits || st.CacheMisses != cs.Misses || st.CacheBytes != cs.Bytes {
		t.Fatalf("Server.Stats cache counters %+v do not match CacheStats %+v", st, cs)
	}

	s.SetCacheBudget(0)
	if cs := s.CacheStats(); cs.Entries != 0 || cs.Budget != 0 {
		t.Fatalf("disabled cache still live: %+v", cs)
	}
}

// TestParallelSpeedupMulticore asserts the worker pool delivers real
// wall-clock speedup where cores exist. It needs genuine parallelism to
// mean anything, so it skips on small machines (CI race shards and
// single-core containers); the benchmark ladder's query.run_wn_ms and
// query.parallel_speedup are the precise artifacts for measuring the
// speedup factor. The 1.4x floor is deliberately below
// the ~2x+ a quiet 4-core machine shows, to stay robust against noisy
// shared runners.
func TestParallelSpeedupMulticore(t *testing.T) {
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 CPUs for a meaningful speedup test, have %d", runtime.NumCPU())
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	s := setupQueryServer(t)
	opNames := []string{"Diff", "S-NN", "NN"}
	run := func(workers int) time.Duration {
		s.QueryWorkers = workers
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if _, err := s.Query(context.Background(), "cam", query.QueryA(), opNames, 0.9, 0, 4); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return best
	}
	run(-1) // warm the page cache before timing
	seq := run(-1)
	par := run(8)
	speedup := float64(seq) / float64(par)
	t.Logf("sequential %v, parallel(8) %v, speedup %.2fx on %d CPUs", seq, par, speedup, runtime.NumCPU())
	if speedup < 1.4 {
		t.Fatalf("parallel speedup %.2fx < 1.4x (seq %v, par %v)", speedup, seq, par)
	}
}

// TestRuntimeKnobsPersist asserts the cache knob round-trips with
// the configuration through the epoch store.
func TestRuntimeKnobsPersist(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "park", []ops.Operator{ops.Motion{}}, []float64{0.8})
	cfg.Runtime.CacheBytes = 1 << 20
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if cs := s.CacheStats(); cs.Budget != 1<<20 {
		t.Fatalf("cache budget not applied on Reconfigure: %+v", cs)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Current().Runtime
	if got.CacheBytes != 1<<20 {
		t.Fatalf("runtime knobs lost across reopen: %+v", got)
	}
	if cs := s2.CacheStats(); cs.Budget != 1<<20 {
		t.Fatalf("cache not restored on reopen: %+v", cs)
	}
	// A configuration silent on caching (Runtime zero) leaves the running
	// cache alone; a negative budget explicitly disables it.
	silent := testConfig(t, "park", []ops.Operator{ops.Motion{}}, []float64{0.8})
	if err := s2.Reconfigure(silent); err != nil {
		t.Fatal(err)
	}
	if cs := s2.CacheStats(); cs.Budget != 1<<20 {
		t.Fatalf("cache dropped by a Runtime-less Reconfigure: %+v", cs)
	}
	// Across a reopen, the budget folds newest-to-oldest past the silent
	// epoch to the last explicit setting.
	s2.Close()
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if cs := s3.CacheStats(); cs.Budget != 1<<20 {
		t.Fatalf("silent epoch dropped the cache across reopen: %+v", cs)
	}
	silent.Runtime.CacheBytes = -1
	if err := s3.Reconfigure(silent); err != nil {
		t.Fatal(err)
	}
	if cs := s3.CacheStats(); cs.Budget != 0 {
		t.Fatalf("negative budget did not disable the cache: %+v", cs)
	}
	s3.Close()
	// And a negative setting stays disabled across reopen.
	s4, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if cs := s4.CacheStats(); cs.Budget != 0 {
		t.Fatalf("explicitly disabled cache revived on reopen: %+v", cs)
	}
}
