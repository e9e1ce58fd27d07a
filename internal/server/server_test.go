package server

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/format"
	"repro/internal/ops"
	"repro/internal/profile"
	"repro/internal/query"
	"repro/internal/vidsim"
)

func testConfig(t testing.TB, scene string, operators []ops.Operator, targets []float64) *core.Config {
	t.Helper()
	sc, err := vidsim.DatasetByName(scene)
	if err != nil {
		t.Fatal(err)
	}
	p := profile.New(sc)
	p.ClipFrames = 120
	var consumers []core.Consumer
	for _, op := range operators {
		for _, tgt := range targets {
			consumers = append(consumers, core.Consumer{Op: op, Target: tgt, Prof: p})
		}
	}
	cfg, err := core.Configure(consumers, core.Options{StorageProfiler: p})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestServerLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("jackson")

	if _, err := s.Ingest(sc, "cam", 1); err == nil {
		t.Fatal("ingest without configuration accepted")
	}
	cfg := testConfig(t, "jackson", []ops.Operator{ops.Diff{}, ops.SNN{}, ops.NN{}}, []float64{0.9, 0.8})
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if s.Current() == nil {
		t.Fatal("no current config after Reconfigure")
	}
	st, err := s.Ingest(sc, "cam", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2 || s.SegmentsOf("cam") != 2 {
		t.Fatalf("segments: %d / %d", st.Segments, s.SegmentsOf("cam"))
	}
	res, err := s.Query(context.Background(), "cam", query.QueryA(), []string{"Diff", "S-NN", "NN"}, 0.9, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 {
		t.Fatalf("expected 1 epoch span, got %d", len(res.Results))
	}
	if res.Speed() <= 1 {
		t.Fatalf("query speed %.1fx", res.Speed())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServerPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, "park", []ops.Operator{ops.Motion{}}, []float64{0.8})
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("park")
	if _, err := s.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.SegmentsOf("cam") != 1 {
		t.Fatalf("stream position lost: %d", s2.SegmentsOf("cam"))
	}
	if len(s2.Epochs()) != 1 {
		t.Fatalf("epochs lost: %d", len(s2.Epochs()))
	}
	// Ingestion continues where it left off under the restored epoch.
	if _, err := s2.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	if s2.SegmentsOf("cam") != 2 {
		t.Fatalf("position after reopen+ingest: %d", s2.SegmentsOf("cam"))
	}
	if _, err := s2.Query(context.Background(), "cam", query.Cascade{Name: "m", Stages: []query.Stage{{Op: ops.Motion{}}}},
		[]string{"Motion"}, 0.8, 0, 2); err != nil {
		t.Fatal(err)
	}
}

// TestEpochTransition reproduces §7's behaviour: after a reconfiguration,
// old segments stay in their old formats and are still queryable, with old
// epochs serving the new consumption formats from their cheapest
// satisfiable storage format.
func TestEpochTransition(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, _ := vidsim.DatasetByName("jackson")

	cfg1 := testConfig(t, "jackson", []ops.Operator{ops.Motion{}}, []float64{0.9, 0.7})
	if err := s.Reconfigure(cfg1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}
	// The library grows: Motion plus Color (a new operator).
	cfg2 := testConfig(t, "jackson", []ops.Operator{ops.Motion{}, ops.Color{}}, []float64{0.9, 0.7})
	if err := s.Reconfigure(cfg2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(sc, "cam", 2); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Epochs()); got != 2 {
		t.Fatalf("epochs = %d", got)
	}
	// A query across the boundary must split into two spans and succeed.
	colorCascade := query.Cascade{Name: "color", Stages: []query.Stage{{Op: ops.Color{}}}}
	res, err := s.Query(context.Background(), "cam", colorCascade, []string{"Color"}, 0.9, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("epoch spans = %d, want 2", len(res.Results))
	}
	for i, r := range res.Results {
		if r.VideoSeconds != 16 {
			t.Fatalf("span %d covers %.0fs, want 16", i, r.VideoSeconds)
		}
	}
	// Old segments must still exist only in epoch-1 formats.
	for _, sf := range cfg2.StorageFormats() {
		inOld := false
		for _, old := range cfg1.StorageFormats() {
			if old == sf {
				inOld = true
			}
		}
		if inOld {
			continue
		}
		segs := segsOf(s, "cam", sf)
		for _, idx := range segs {
			if idx < 2 {
				t.Fatalf("old segment %d was transcoded into new format %v", idx, sf)
			}
		}
	}
}

// TestDetectionsSpanEpochs: a query's Detections are every epoch span's
// final-stage detections in segment order, not one entry per span.
func TestDetectionsSpanEpochs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sc, _ := vidsim.DatasetByName("jackson")
	cfg := testConfig(t, "jackson", []ops.Operator{ops.Motion{}}, []float64{0.9})
	for epoch := 0; epoch < 2; epoch++ {
		if err := s.Reconfigure(cfg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(sc, "cam", 1); err != nil {
			t.Fatal(err)
		}
	}
	cascade, names := motionCascade()
	res, err := s.Query(context.Background(), "cam", cascade, names, 0.9, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("epoch spans = %d, want 2", len(res.Results))
	}
	var want []ops.Detection
	for _, span := range res.Results {
		want = append(want, span.Detections...)
	}
	if len(want) <= len(res.Results) {
		t.Fatalf("%d detections over two segments: too few to tell from the span count", len(want))
	}
	if got := res.Detections(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Detections() = %d entries, want the spans' %d detections in order", len(got), len(want))
	}
}

func segsOf(s *Server, stream string, sf format.StorageFormat) []int {
	return s.segs.Segments(stream, sf)
}

func TestEpochEncodingRoundTrip(t *testing.T) {
	cfg := testConfig(t, "park", []ops.Operator{ops.Diff{}}, []float64{0.8})
	ep := &Epoch{ID: 3, Since: map[string]int{"a": 7, "b": 0}, Cfg: cfg}
	b, err := encodeEpoch(ep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeEpoch(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 3 || got.Since["a"] != 7 || got.Since["b"] != 0 {
		t.Fatalf("round trip: %+v", got)
	}
	if len(got.Cfg.Derivation.SFs) != len(cfg.Derivation.SFs) {
		t.Fatal("config lost in epoch round trip")
	}
	if _, err := decodeEpoch(b[:4]); err == nil {
		t.Fatal("short epoch accepted")
	}
	if _, err := decodeEpoch(b[:12]); err == nil {
		t.Fatal("truncated epoch accepted")
	}
}

func TestIntersectFidelity(t *testing.T) {
	a := format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 720, Sampling: format.Sampling{Num: 1, Den: 1}}
	b := format.Fidelity{Quality: format.QBad, Crop: format.Crop100, Res: 360, Sampling: format.Sampling{Num: 1, Den: 6}}
	got := intersectFidelity(a, b)
	if got != b {
		t.Fatalf("intersect = %v, want %v", got, b)
	}
	if intersectFidelity(b, a) != b {
		t.Fatal("intersect not commutative here")
	}
}

func TestServerErode(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// A configuration with storage pressure so the plan actually erodes.
	sc, _ := vidsim.DatasetByName("jackson")
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
	lifespan := 3
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
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(sc, "cam", 3); err != nil {
		t.Fatal(err)
	}
	deleted, err := s.Erode("cam", func(idx int) int { return 3 - idx })
	if err != nil {
		t.Fatal(err)
	}
	if plan.K > 0 && deleted == 0 {
		t.Fatal("erosion plan has pressure but nothing was deleted")
	}
	// Golden segments intact.
	g := cfg.StorageFormats()[d.Golden]
	if got := len(segsOf(s, "cam", g)); got != 3 {
		t.Fatalf("golden segments = %d, want 3", got)
	}
}

func TestQueryUnknownConsumer(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cfg := testConfig(t, "park", []ops.Operator{ops.Motion{}}, []float64{0.8})
	if err := s.Reconfigure(cfg); err != nil {
		t.Fatal(err)
	}
	sc, _ := vidsim.DatasetByName("park")
	if _, err := s.Ingest(sc, "cam", 1); err != nil {
		t.Fatal(err)
	}
	_, err = s.Query(context.Background(), "cam", query.QueryB(), []string{"Motion", "License", "OCR"}, 0.8, 0, 1)
	if err == nil || !strings.Contains(err.Error(), "no consumer") {
		t.Fatalf("unknown consumer: %v", err)
	}
}
