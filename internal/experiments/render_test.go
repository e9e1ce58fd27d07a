package experiments

import (
	"strings"
	"testing"

	"repro/internal/format"
)

// Render functions are cheap and always exercised, independent of -short.

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"a", "long-header"}, [][]string{{"xxxxxx", "1"}, {"y", "22"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	// All rows align to the same width.
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("header and rule misaligned:\n%s", out)
	}
}

func TestRenderFig3(t *testing.T) {
	a := RenderFig3a([]Fig3aRow{{Speed: format.SpeedSlowest, EncodeSpeed: 2, DecodeSpeed: 100, SizeBytes: 1 << 20}})
	if !strings.Contains(a, "slowest") || !strings.Contains(a, "1.05 MB") {
		t.Fatalf("fig3a render:\n%s", a)
	}
	b := RenderFig3b([]Fig3bRow{{KeyframeI: 250, DecodeSparse: 30, DecodeFull: 20, SizeBytes: 2 << 20, FramesDecodedSparse: 17}})
	if !strings.Contains(b, "250") || !strings.Contains(b, "17") {
		t.Fatalf("fig3b render:\n%s", b)
	}
}

func TestRenderFig456(t *testing.T) {
	p := map[string][]Fig4Row{
		"a: crop x Motion":     {{Knob: "crop", Value: "50%", Accuracy: 0.8, Ingest: 0.5, Storage: 0.5, Retrieval: 0.5, Consumption: 0.5}},
		"b: quality x License": {},
		"c: sampling x S-NN":   {},
		"d: sampling x NN":     {},
	}
	if out := RenderFig4(p); !strings.Contains(out, "crop x Motion") {
		t.Fatalf("fig4 render:\n%s", out)
	}
	f5 := RenderFig5([]Fig5Row{{Label: "A", Fidelity: format.MaxFidelity(), Accuracy: 0.8, Ingest: 1, Storage: 1024, Retrieval: 0.1, Consumption: 0.2}})
	if !strings.Contains(f5, "A") {
		t.Fatalf("fig5 render:\n%s", f5)
	}
	f6 := RenderFig6([]Fig6Row{{Op: "Motion", Fidelity: format.MaxFidelity(), Accuracy: 0.9, Consumption: 100, DecodeSame: 50, DecodeGolden: 20, RawSame: 400}})
	for _, want := range []string{"Motion", "100x", "50x", "400x"} {
		if !strings.Contains(f6, want) {
			t.Fatalf("fig6 render missing %q:\n%s", want, f6)
		}
	}
}

func TestRenderTable4AndFig12(t *testing.T) {
	t4 := RenderTable4([]Table4Row{
		{BudgetCores: 0, IngestCores: 8.6, BytesPerSec: 1 << 15, GBPerDay: 3.2, NumSFs: 7, Codings: []string{"RAW"}},
		{BudgetCores: 1, Err: errFake},
	})
	if !strings.Contains(t4, "unlimited") || !strings.Contains(t4, "infeasible") {
		t.Fatalf("table4 render:\n%s", t4)
	}
	f12 := RenderFig12([]Fig12Row{{NumOperators: 5, LastAdded: "License", IngestCores: 8.9, NumSFs: 7}})
	if !strings.Contains(f12, "License") {
		t.Fatalf("fig12 render:\n%s", f12)
	}
}

var errFake = errType{}

type errType struct{}

func (errType) Error() string { return "fake failure" }

func TestRenderFig11AndFig13(t *testing.T) {
	r := &Fig11Result{
		QuerySpeeds: []Fig11Row{{Scene: "jackson", Accuracy: 0.9, Config: ConfVStore, Speed: 300}},
		Storage:     []CostRow{{Scene: "jackson", Config: ConfNtoN, GBPerDay: 5.2}},
		Ingest:      []CostRow{{Scene: "jackson", Config: Conf1to1, Cores: 4.3}},
	}
	out := RenderFig11(r)
	for _, want := range []string{"VStore", "300x", "5.2 GB/day", "4.30 cores"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig11 render missing %q:\n%s", want, out)
		}
	}
	f13 := RenderFig13([]Fig13Budget{
		{Label: "40%", K: 5.2, OverallSpeed: []float64{1, 0.5}, SFLabels: []string{"SF0"}, Residual: [][]float64{{3.0}, {1.0}}},
		{Label: "bad", Err: errFake},
	})
	for _, want := range []string{"k=5.20", "infeasible", "SF0"} {
		if !strings.Contains(f13, want) {
			t.Fatalf("fig13 render missing %q:\n%s", want, f13)
		}
	}
}

func TestRenderFig14AndSFConfig(t *testing.T) {
	f14 := RenderFig14([]Fig14Row{{Op: "Diff", VStoreRuns: 69, VStoreSeconds: 0.2, ExhaustiveRuns: 600, ExhaustiveSecs: 5.9}})
	for _, want := range []string{"Diff", "69", "600", "TOTAL"} {
		if !strings.Contains(f14, want) {
			t.Fatalf("fig14 render missing %q:\n%s", want, f14)
		}
	}
	sc := RenderSFConfig(&SFConfigResult{
		NumCFs: 10, HeuristicBytes: 1 << 17, HeuristicSecs: 60, HeuristicSFs: 6, HeuristicRounds: 5,
		DistanceBytes: 1 << 19, DistanceSecs: 0.1, DistanceSFs: 5, ExhaustiveSkipped: true,
	})
	for _, want := range []string{"heuristic", "distance", "skipped", "4.00x"} {
		if !strings.Contains(sc, want) {
			t.Fatalf("sfconfig render missing %q:\n%s", want, sc)
		}
	}
}

func TestEnvProfilerReuse(t *testing.T) {
	e := NewEnv(60)
	if e.Profiler("jackson") != e.Profiler("jackson") {
		t.Fatal("profiler not cached per scene")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset did not panic")
		}
	}()
	e.Profiler("atlantis")
}

func TestStandardConsumers(t *testing.T) {
	e := testEnv(60)
	cs := e.StandardConsumers()
	if len(cs) != 24 {
		t.Fatalf("consumers = %d, want 24 (6 ops x 4 accuracies)", len(cs))
	}
	seen := map[string]bool{}
	for _, c := range cs {
		seen[c.Op.Name()] = true
	}
	for _, want := range []string{"Diff", "S-NN", "NN", "Motion", "License", "OCR"} {
		if !seen[want] {
			t.Fatalf("missing operator %s", want)
		}
	}
}
