// Package query's tests double as the cross-module integration suite:
// vidsim → ingest → kvstore/segment → retrieve → ops, end to end.
package query

import (
	"context"
	"slices"
	"testing"

	"repro/internal/format"
	"repro/internal/ingest"
	"repro/internal/kvstore"
	"repro/internal/ops"
	"repro/internal/segment"
	"repro/internal/vidsim"
)

var (
	s11  = format.Sampling{Num: 1, Den: 1}
	s12  = format.Sampling{Num: 1, Den: 2}
	s16  = format.Sampling{Num: 1, Den: 6}
	s130 = format.Sampling{Num: 1, Den: 30}
)

func fullFid() format.Fidelity { return format.MaxFidelity() }

func newStore(t *testing.T) *segment.Store {
	t.Helper()
	kv, err := kvstore.Open(t.TempDir(), kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	return segment.NewStore(kv)
}

// testSFs is a small hand-written configuration: a golden-like rich format
// and a raw low-fidelity one.
func testSFs() []format.StorageFormat {
	return []format.StorageFormat{
		{Fidelity: fullFid(), Coding: format.Coding{Speed: format.SpeedFast, KeyframeI: 50}},
		{
			Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s11},
			Coding:   format.RawCoding,
		},
	}
}

func ingestSegments(t *testing.T, store *segment.Store, scene string, n int) vidsim.Scene {
	t.Helper()
	sc, err := vidsim.DatasetByName(scene)
	if err != nil {
		t.Fatal(err)
	}
	ing := ingest.Ingester{Store: store, SFs: testSFs()}
	st, err := ing.Stream(sc, scene, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != n {
		t.Fatalf("ingested %d segments, want %d", st.Segments, n)
	}
	if st.CPUSecPerVideoSec() <= 0 {
		t.Fatal("no ingest CPU accounted")
	}
	return sc
}

func TestQueryAEndToEnd(t *testing.T) {
	store := newStore(t)
	ingestSegments(t, store, "jackson", 2)
	sfs := testSFs()
	binding := Binding{
		{CF: format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s12}}, SF: sfs[1]},
		{CF: format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s12}}, SF: sfs[1]},
		{CF: format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 400, Sampling: s16}}, SF: sfs[0]},
	}
	eng := Engine{Store: store}
	res, err := eng.Run(context.Background(), "jackson", QueryA(), binding, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.VideoSeconds != 16 {
		t.Fatalf("video seconds = %v", res.VideoSeconds)
	}
	if res.Speed() <= 1 {
		t.Fatalf("query speed %.1fx not above realtime", res.Speed())
	}
	if len(res.StageStats) != 3 {
		t.Fatalf("stage stats: %d", len(res.StageStats))
	}
	// The cascade must narrow work: NN consumes fewer frames than Diff.
	if res.StageStats[2].FramesConsumed >= res.StageStats[0].FramesConsumed {
		t.Fatalf("cascade did not filter: NN consumed %d, Diff %d",
			res.StageStats[2].FramesConsumed, res.StageStats[0].FramesConsumed)
	}
	// jackson has steady traffic: the final stage should find cars.
	if len(res.Detections) == 0 {
		t.Fatal("query A found no cars in 16s of jackson")
	}
}

func TestQueryBEndToEnd(t *testing.T) {
	store := newStore(t)
	ingestSegments(t, store, "dashcam", 2)
	sfs := testSFs()
	cf := func(res format.Resolution, s format.Sampling) format.ConsumptionFormat {
		return format.ConsumptionFormat{Fidelity: format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: res, Sampling: s}}
	}
	binding := Binding{
		{CF: cf(180, s130), SF: sfs[1]},
		{CF: cf(720, s12), SF: sfs[0]},
		{CF: cf(720, s12), SF: sfs[0]},
	}
	eng := Engine{Store: store}
	res, err := eng.Run(context.Background(), "dashcam", QueryB(), binding, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Speed() <= 0 {
		t.Fatalf("speed %v", res.Speed())
	}
	for _, d := range res.Detections {
		if len(d.Label) != vidsim.PlateDigits {
			t.Fatalf("OCR output %q is not a plate string", d.Label)
		}
	}
}

// TestByName: the empty name selects Query A, a name matches in either
// case, and an unknown name is an error.
func TestByName(t *testing.T) {
	for _, c := range []struct {
		name, want string
		ops        []string
	}{
		{"", QueryA().Name, []string{"Diff", "S-NN", "NN"}},
		{"a", QueryA().Name, []string{"Diff", "S-NN", "NN"}},
		{"A", QueryA().Name, []string{"Diff", "S-NN", "NN"}},
		{"b", QueryB().Name, []string{"Motion", "License", "OCR"}},
		{"nope", "", nil},
	} {
		cascade, names, err := ByName(c.name)
		if (err != nil) != (c.want == "") || cascade.Name != c.want || !slices.Equal(names, c.ops) {
			t.Errorf("ByName(%q) = %q, %v, %v; want %q, %v", c.name, cascade.Name, names, err, c.want, c.ops)
		}
	}
}

func TestBindingMismatch(t *testing.T) {
	store := newStore(t)
	eng := Engine{Store: store}
	if _, err := eng.Run(context.Background(), "x", QueryA(), Binding{}, 0, 1); err == nil {
		t.Fatal("mismatched binding accepted")
	}
}

func TestR1ViolationSurfaces(t *testing.T) {
	store := newStore(t)
	ingestSegments(t, store, "jackson", 1)
	sfs := testSFs()
	// Demand richer fidelity than the raw 200p format stores.
	binding := Binding{
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[1]},
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[0]},
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[0]},
	}
	eng := Engine{Store: store}
	if _, err := eng.Run(context.Background(), "jackson", QueryA(), binding, 0, 1); err == nil {
		t.Fatal("R1 violation not detected")
	}
}

// TestLowerFidelityFasterQuery is Figure 11(a)'s essence: cheaper formats
// accelerate the same query.
func TestLowerFidelityFasterQuery(t *testing.T) {
	store := newStore(t)
	ingestSegments(t, store, "jackson", 2)
	sfs := testSFs()
	rich := Binding{
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[0]},
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[0]},
		{CF: format.ConsumptionFormat{Fidelity: fullFid()}, SF: sfs[0]},
	}
	cheapFid := format.Fidelity{Quality: format.QBest, Crop: format.Crop100, Res: 200, Sampling: s130}
	cheap := Binding{
		{CF: format.ConsumptionFormat{Fidelity: cheapFid}, SF: sfs[1]},
		{CF: format.ConsumptionFormat{Fidelity: cheapFid}, SF: sfs[1]},
		{CF: format.ConsumptionFormat{Fidelity: cheapFid}, SF: sfs[1]},
	}
	eng := Engine{Store: store}
	r1, err := eng.Run(context.Background(), "jackson", QueryA(), rich, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := eng.Run(context.Background(), "jackson", QueryA(), cheap, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Speed() <= r1.Speed() {
		t.Fatalf("cheap binding %.0fx not faster than rich %.0fx", r2.Speed(), r1.Speed())
	}
}

func TestGroundTruthCascade(t *testing.T) {
	sc, _ := vidsim.DatasetByName("jackson")
	out := GroundTruth(sc, QueryA(), 0, 1)
	if len(out.PTS) == 0 {
		t.Fatal("ground truth consumed nothing")
	}
	for _, d := range out.Detections {
		if d.Label != "car" && d.Label != "person" {
			t.Fatalf("unexpected final-stage label %q", d.Label)
		}
	}
}

func TestActivationSpans(t *testing.T) {
	out := ops.Output{Detections: []ops.Detection{
		{PTS: 10}, {PTS: 12}, {PTS: 100},
	}}
	spans := activationSpans(out, s16)
	if len(spans) != 2 {
		t.Fatalf("spans = %v, want 2 merged spans", spans)
	}
	pred := spanPredicate(spans)
	for _, pts := range []int{10, 12, 15, 100} {
		if !pred(pts) {
			t.Errorf("pts %d not within spans", pts)
		}
	}
	if pred(60) {
		t.Error("pts 60 should be outside spans")
	}
}

// GroundTruth runs the cascade entirely at the ingestion fidelity directly
// from the scene source (no store).
func GroundTruth(scene vidsim.Scene, c Cascade, seg0, seg1 int) ops.Output {
	src := vidsim.NewSource(scene)
	frames := src.Clip(seg0*segment.Frames, (seg1-seg0)*segment.Frames)
	var within func(int) bool
	var out ops.Output
	full := format.MaxFidelity()
	for si, stage := range c.Stages {
		in := frames
		if within != nil {
			in = in[:0:0]
			for _, f := range frames {
				if within(f.PTS) {
					in = append(in, f)
				}
			}
		}
		res, _ := ops.RunAtFidelity(stage.Op, in, full)
		out = res
		if si < len(c.Stages)-1 {
			spans := activationSpans(res, full.Sampling)
			if len(spans) == 0 {
				return ops.Output{PTS: res.PTS}
			}
			within = spanPredicate(spans)
		}
	}
	return out
}
