package server

import (
	"context"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/erode"
	"repro/internal/ingest"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/segment"
	"repro/internal/tier"
	"repro/internal/vidsim"
)

// segFrames is one segment's native frame count, used to cut submissions
// for the streaming pipelines.
const segFrames = segment.Frames

// pressureConfig derives a configuration whose erosion plan actually
// deletes segments (a storage budget between the floor and the full
// footprint), so erosion tests have teeth. The derivation profiles every
// operator, which is expensive under the race detector, so the result is
// memoised: it is read-only after creation and safe to share between
// servers.
func pressureConfig(t testing.TB, lifespan int) *core.Config {
	t.Helper()
	if lifespan != 3 {
		t.Fatalf("memoised pressureConfig only supports lifespan 3, got %d", lifespan)
	}
	pressureOnce.Do(func() { pressureCfg = derivePressureConfig(t, lifespan) })
	if pressureCfg == nil {
		t.Fatal("pressure config derivation failed in an earlier test")
	}
	return pressureCfg
}

var (
	pressureOnce sync.Once
	pressureCfg  *core.Config
)

func derivePressureConfig(t testing.TB, lifespan int) *core.Config {
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
	}
	choices := core.DeriveConsumptionFormats(consumers)
	d, err := core.DeriveStorageFormats(choices, core.SFOptions{Profiler: p})
	if err != nil {
		t.Fatal(err)
	}
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
	return &core.Config{Derivation: d, Erosion: plan}
}

func motionCascade() (query.Cascade, []string) {
	return query.Cascade{Name: "motion", Stages: []query.Stage{{Op: ops.Motion{}}}}, []string{"Motion"}
}

func sameDetections(t *testing.T, a, b QueryResult, what string) {
	t.Helper()
	if len(a.Results) != len(b.Results) {
		t.Fatalf("%s: %d vs %d epoch spans", what, len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if !reflect.DeepEqual(a.Results[i].Detections, b.Results[i].Detections) {
			t.Fatalf("%s: span %d detections differ", what, i)
		}
		if !reflect.DeepEqual(a.Results[i].FinalPTS, b.Results[i].FinalPTS) {
			t.Fatalf("%s: span %d consumed frames differ", what, i)
		}
	}
}

// TestSnapshotIsolationUnderErosion is the golden-path isolation test: a
// snapshot taken before an erosion pass keeps reading the pre-erosion
// segment set byte-identically, a snapshot taken after sees the eroded
// set, and physical deletion happens only at release.
func TestSnapshotIsolationUnderErosion(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := pressureConfig(t, 3)
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := s.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	cascade, names := motionCascade()
	ref, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Segments("cam") != 3 {
		t.Fatalf("snapshot sees %d segments", snap.Segments("cam"))
	}
	deleted, err := s.ErodePass(func(_ string, idx int) int { return 3 - idx })
	if err != nil {
		t.Fatal(err)
	}
	if deleted == 0 {
		t.Fatal("erosion pass with pressure deleted nothing")
	}
	// The held snapshot still reads the full pre-erosion set.
	held, err := s.QueryAt(context.Background(), snap, "cam", cascade, names, 0.9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, ref, held, "held snapshot after erosion")

	// Eroded records are pinned: the manifest defers their physical
	// deletion while the snapshot is held.
	if st := s.manifest.Stats(); st.PendingDeletes == 0 {
		t.Fatal("no deferred deletes while a snapshot pins eroded segments")
	}
	if st := s.Stats(); st.ActiveSnapshots != 1 {
		t.Fatalf("ActiveSnapshots = %d", st.ActiveSnapshots)
	}

	// A fresh snapshot observes the post-erosion set: strictly fewer
	// frames reach the first stage than the pre-erosion reference.
	post, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if post.Results[0].StageStats[0].FramesConsumed >= ref.Results[0].StageStats[0].FramesConsumed {
		t.Fatalf("post-erosion query consumed %d frames, reference %d",
			post.Results[0].StageStats[0].FramesConsumed, ref.Results[0].StageStats[0].FramesConsumed)
	}

	snap.Release()
	if st := s.manifest.Stats(); st.PendingDeletes != 0 {
		t.Fatalf("release left %d pending deletes", st.PendingDeletes)
	}
	if st := s.Stats(); st.ActiveSnapshots != 0 || st.SnapshotsTaken < 3 {
		t.Fatalf("snapshot counters = %+v", st)
	}
}

// TestErosionDaemonInvalidatesCache is the regression for cache
// invalidation under the background eroder: after a daemon pass, cached
// retrievals of the stream miss (the entries are gone and the eroded
// segment is invisible) instead of serving pre-erosion bytes.
func TestErosionDaemonInvalidatesCache(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reconfigure(pressureConfig(t, 3)); err != nil {
		t.Fatal(err)
	}
	s.SetCacheBudget(64 << 20)
	sc, _ := vidsim.DatasetByName("jackson")
	if _, err := s.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	cascade, names := motionCascade()
	runQuery := func() QueryResult {
		res, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runQuery() // cold: populates the cache
	warm := s.CacheStats()
	ref := runQuery() // warm: hits only
	afterWarm := s.CacheStats()
	if afterWarm.Hits == warm.Hits || afterWarm.Misses != warm.Misses {
		t.Fatalf("warm query did not hit: %+v -> %+v", warm, afterWarm)
	}

	d, err := s.StartErosionDaemon(time.Hour, erode.NewManualClock(), func(_ string, idx int) int { return 3 - idx })
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RunPass(); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Passes; got != 1 {
		t.Fatalf("daemon passes = %d", got)
	}
	if got := s.Stats().ErosionPasses; got != 1 {
		t.Fatalf("Stats().ErosionPasses = %d", got)
	}

	before := s.CacheStats()
	post := runQuery()
	after := s.CacheStats()
	// Every lookup after the pass must miss: the pass invalidated the
	// stream's entries, and the eroded segments are skipped before any
	// cache probe.
	if after.Hits != before.Hits {
		t.Fatalf("cache hit after erosion pass: %+v -> %+v", before, after)
	}
	if after.Misses == before.Misses {
		t.Fatalf("no cache activity after erosion pass: %+v -> %+v", before, after)
	}
	if post.Results[0].StageStats[0].FramesConsumed >= ref.Results[0].StageStats[0].FramesConsumed {
		t.Fatal("post-erosion query still consumed the full pre-erosion frame set")
	}
	if err := s.StopErosionDaemon(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveStreamLifecycle covers the streaming-ingest surface: start
// validation, submission through the pipeline, drain, stats, stop, and
// manifest rebuild on reopen.
func TestLiveStreamLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartStream("cam"); err == nil {
		t.Fatal("StartStream before Reconfigure accepted")
	}
	cfg := testConfig(t, "jackson", []ops.Operator{ops.Motion{}}, []float64{0.9})
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	live, err := s.StartStream("cam")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartStream("cam"); err == nil {
		t.Fatal("double StartStream accepted")
	}
	sc, _ := vidsim.DatasetByName("jackson")
	src := vidsim.NewSource(sc)
	for i := 0; i < 2; i++ {
		if err := live.Submit(src.Clip(i*segFrames, segFrames)); err != nil {
			t.Fatal(err)
		}
	}
	s.DrainStreams()
	if got := s.SegmentsOf("cam"); got != 2 {
		t.Fatalf("SegmentsOf = %d", got)
	}
	st := s.LiveStreams()["cam"]
	if st.Submitted != 2 || st.Ingested != 2 || st.Failed != 0 || st.Queued != 0 {
		t.Fatalf("live stats = %+v", st)
	}
	cascade, names := motionCascade()
	res, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].StageStats[0].FramesConsumed == 0 {
		t.Fatal("live-ingested segments yielded no frames")
	}
	if err := s.StopStream("cam"); err != nil {
		t.Fatal(err)
	}
	if s.Stream("cam") != nil {
		t.Fatal("stream still registered after StopStream")
	}
	if err := live.Submit(src.Clip(0, segFrames)); err == nil {
		t.Fatal("Submit accepted after StopStream")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the manifest is rebuilt from disk, so the live-ingested
	// segments are queryable byte-identically.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	res2, err := s2.Query(context.Background(), "cam", cascade, names, 0.9, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sameDetections(t, res, res2, "after reopen")
}

// TestOpenReconcilesBareIngest: segments written by a bare ingester (no
// server, no persisted stream position — what a store written by an older
// `vstore ingest` holds) are adopted on Open: the manifest commits them
// and the stream position advances past them, so live ingest appends
// instead of overwriting.
func TestOpenReconcilesBareIngest(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, "jackson", []ops.Operator{ops.Motion{}}, []float64{0.9})
	// Opened as a tiered segment store with no server on top.
	kv, err := tier.Open(filepath.Join(dir, "segments"), tier.Options{Route: segment.RouteKey})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")
	ing := ingest.Ingester{Store: segment.NewStore(kv), SFs: cfg.StorageFormats()}
	if _, err := ing.Stream(sc, "cam", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.SegmentsOf("cam"); got != 2 {
		t.Fatalf("SegmentsOf after bare ingest = %d, want 2", got)
	}
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	if got := s.SegmentsOf("cam"); got != 3 {
		t.Fatalf("SegmentsOf after append = %d, want 3", got)
	}
	cascade, names := motionCascade()
	res, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	var frames int64
	for _, r := range res.Results {
		frames += r.StageStats[0].FramesConsumed
	}
	if frames == 0 {
		t.Fatal("adopted segments yielded no frames")
	}
}

// TestLiveConcurrentServe is the race-focused end-to-end scenario the
// issue demands: two streams ingest through their pipelines while four
// queriers and the background erosion daemon run concurrently. Every
// query's snapshot is retained, and after the system quiesces each is
// re-queried: the live results must be byte-identical to the quiescent
// re-run over the same snapshot — no partial segments, no post-snapshot
// shrinkage, no stale cache bytes.
func TestLiveConcurrentServe(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Reconfigure(pressureConfig(t, 3)); err != nil {
		t.Fatal(err)
	}
	s.SetCacheBudget(32 << 20)

	segments := 5
	if testing.Short() {
		segments = 3
	}
	streams := []string{"cam0", "cam1"}
	scenes := []string{"jackson", "park"}
	for _, name := range streams {
		if _, err := s.StartStream(name); err != nil {
			t.Fatal(err)
		}
	}

	// The daemon ticks as fast as the firer can drive it, ageing segments
	// aggressively so erosion interleaves with ingest and queries.
	clock := erode.NewManualClock()
	if _, err := s.StartErosionDaemon(time.Hour, clock, func(stream string, idx int) int {
		return s.SegmentsOf(stream) - idx
	}); err != nil {
		t.Fatal(err)
	}
	fireDone := make(chan struct{})
	var firer sync.WaitGroup
	firer.Add(1)
	go func() {
		defer firer.Done()
		for {
			select {
			case <-fireDone:
				return
			default:
				if !clock.TryFire() {
					time.Sleep(time.Millisecond)
				}
			}
		}
	}()

	// Feeders: one per stream, submitting segments through the pipeline.
	var feeders sync.WaitGroup
	for i, name := range streams {
		i, name := i, name
		feeders.Add(1)
		go func() {
			defer feeders.Done()
			sc, err := vidsim.DatasetByName(scenes[i])
			if err != nil {
				t.Error(err)
				return
			}
			src := vidsim.NewSource(sc)
			live := s.Stream(name)
			for seg := 0; seg < segments; seg++ {
				if err := live.Submit(src.Clip(seg*segFrames, segFrames)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Queriers: four concurrent, round-robin over the streams, retaining
	// every snapshot + result pair for the post-hoc golden comparison.
	type observed struct {
		snap   *Snapshot
		stream string
		n      int
		res    QueryResult
	}
	cascade, names := motionCascade()
	var obsMu sync.Mutex
	var observations []observed
	ingestDone := make(chan struct{})
	var queriers sync.WaitGroup
	const keepPerQuerier = 32 // bound the held snapshots and the re-run cost
	for q := 0; q < 4; q++ {
		q := q
		queriers.Add(1)
		go func() {
			defer queriers.Done()
			kept := 0
			for iter := 0; ; iter++ {
				select {
				case <-ingestDone:
					return
				default:
				}
				stream := streams[(q+iter)%len(streams)]
				snap, err := s.Snapshot()
				if err != nil {
					t.Error(err)
					return
				}
				n := snap.Segments(stream)
				if n == 0 {
					snap.Release()
					continue
				}
				res, err := s.QueryAt(context.Background(), snap, stream, cascade, names, 0.9, 0, n)
				if err != nil {
					t.Errorf("live query: %v", err)
					snap.Release()
					return
				}
				// Retain a sample for the golden comparison; later
				// iterations keep exercising the live path without
				// pinning every snapshot.
				if kept < keepPerQuerier {
					kept++
					obsMu.Lock()
					observations = append(observations, observed{snap, stream, n, res})
					obsMu.Unlock()
				} else {
					snap.Release()
					// Quota reached: keep exercising the live path, but
					// yield the (possibly single) CPU to the transcoders.
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	feeders.Wait()
	s.DrainStreams()
	close(ingestDone)
	queriers.Wait()
	close(fireDone)
	firer.Wait()
	if err := s.StopErosionDaemon(); err != nil {
		t.Fatal(err)
	}
	for _, name := range streams {
		if err := s.StopStream(name); err != nil {
			t.Fatal(err)
		}
	}

	// Quiesced: re-run every retained snapshot's query and demand
	// byte-identical detections and consumed-frame timelines.
	if len(observations) == 0 {
		t.Fatal("no queries completed during the live phase")
	}
	for i, ob := range observations {
		again, err := s.QueryAt(context.Background(), ob.snap, ob.stream, cascade, names, 0.9, 0, ob.n)
		if err != nil {
			t.Fatalf("quiescent re-run %d: %v", i, err)
		}
		sameDetections(t, ob.res, again, "live vs quiescent")
		ob.snap.Release()
	}
	t.Logf("verified %d live queries against quiescent re-runs", len(observations))

	st := s.Stats()
	if st.ActiveSnapshots != 0 {
		t.Fatalf("snapshots leaked: %+v", st)
	}
	if st.SnapshotsTaken < int64(len(observations)) {
		t.Fatalf("SnapshotsTaken = %d < %d observations", st.SnapshotsTaken, len(observations))
	}
	if s.manifest.Stats().PendingDeletes != 0 {
		t.Fatal("pending physical deletes after all snapshots released")
	}
	for _, name := range streams {
		if got := s.SegmentsOf(name); got != segments {
			t.Fatalf("%s ingested %d segments, want %d", name, got, segments)
		}
	}
}
