package ops

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/vidsim"
)

func fid(q format.Quality, res format.Resolution, s format.Sampling, c format.Crop) format.Fidelity {
	return format.Fidelity{Quality: q, Res: res, Sampling: s, Crop: c}
}

var (
	s11  = format.Sampling{Num: 1, Den: 1}
	s12  = format.Sampling{Num: 1, Den: 2}
	s16  = format.Sampling{Num: 1, Den: 6}
	s130 = format.Sampling{Num: 1, Den: 30}
)

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 9 {
		t.Fatalf("library has %d operators, want 9 (Table 2)", len(all))
	}
	want := []string{"Diff", "S-NN", "NN", "Motion", "License", "OCR", "Opflow", "Color", "Contour"}
	for i, op := range all {
		if op.Name() != want[i] {
			t.Errorf("operator %d = %s, want %s", i, op.Name(), want[i])
		}
		got, err := ByName(want[i])
		if err != nil || got.Name() != want[i] {
			t.Errorf("ByName(%s): %v", want[i], err)
		}
	}
	if _, err := ByName("YOLO9000"); err == nil {
		t.Error("unknown operator accepted")
	}
}

// opScene pairs each operator with a dataset that exercises it, as §6.1
// profiles query A operators on jackson and query B on dashcam.
func opScene(name string) (string, int) {
	switch name {
	case "Motion", "License", "OCR":
		return "dashcam", 150
	case "Color":
		return "jackson", 600
	default:
		return "jackson", 150
	}
}

// TestSamplingDegradesAccuracy: consuming fewer frames can only lose events.
func TestSamplingDegradesAccuracy(t *testing.T) {
	for _, op := range All() {
		scene, n := opScene(op.Name())
		refFrames := renderAt(t, scene, 0, n, fullFid())
		ref, _ := RunAtFidelity(op, refFrames, fullFid())
		if len(ref.Detections) == 0 && op.Name() != "Opflow" {
			t.Errorf("%s: no reference detections; scene/op pairing broken", op.Name())
			continue
		}
		fSparse := fid(format.QBest, 720, s130, format.Crop100)
		sparse, _ := RunAtFidelity(op, renderAt(t, scene, 0, n, fSparse), fSparse)
		f1Sparse := F1(ref, sparse)
		if f1Sparse > 1.0 || f1Sparse < 0 {
			t.Errorf("%s: F1 out of range: %v", op.Name(), f1Sparse)
		}
		fHalf := fid(format.QBest, 720, s12, format.Crop100)
		half, _ := RunAtFidelity(op, renderAt(t, scene, 0, n, fHalf), fHalf)
		f1Half := F1(ref, half)
		if f1Half < f1Sparse-0.15 {
			t.Errorf("%s: half-rate F1 %.3f clearly below 1/30-rate F1 %.3f", op.Name(), f1Half, f1Sparse)
		}
		if f1Half < 0.5 {
			t.Errorf("%s: half-rate F1 %.3f implausibly low", op.Name(), f1Half)
		}
	}
}

// TestConsumptionCostScalesWithPixels: work must track the data-quantity
// knobs (resolution here) and be independent of image quality (O2).
func TestConsumptionCostScalesWithPixels(t *testing.T) {
	for _, op := range All() {
		scene, _ := opScene(op.Name())
		n := 30
		fHi := fid(format.QBest, 720, s11, format.Crop100)
		fLo := fid(format.QBest, 180, s11, format.Crop100)
		_, hi := RunAtFidelity(op, renderAt(t, scene, 0, n, fHi), fHi)
		_, lo := RunAtFidelity(op, renderAt(t, scene, 0, n, fLo), fLo)
		if hi.Work <= lo.Work {
			t.Errorf("%s: work at 720p (%d) not above 180p (%d)", op.Name(), hi.Work, lo.Work)
		}
		// 720p has 16x the pixels of 180p; allow wide tolerance for
		// rounding of internal dims.
		if ratio := float64(hi.Work) / float64(lo.Work); ratio < 8 || ratio > 32 {
			t.Errorf("%s: work ratio 720p/180p = %.1f, want ~16", op.Name(), ratio)
		}
		fWorst := fid(format.QWorst, 720, s11, format.Crop100)
		_, worst := RunAtFidelity(op, renderAt(t, scene, 0, n, fWorst), fWorst)
		if worst.Work != hi.Work {
			t.Errorf("%s: image quality changed consumption work: %d vs %d (violates O2)", op.Name(), worst.Work, hi.Work)
		}
	}
}

// TestCostSpreadAcrossCascade: the paper reports three orders of magnitude
// between the cheapest and costliest operators of a cascade.
func TestCostSpreadAcrossCascade(t *testing.T) {
	frames := renderAt(t, "jackson", 0, 30, fullFid())
	_, diff := Diff{}.Run(frames)
	_, snn := SNN{}.Run(frames)
	_, nn := NN{}.Run(frames)
	if !(diff.Work < snn.Work && snn.Work < nn.Work) {
		t.Fatalf("cascade cost order broken: Diff %d, S-NN %d, NN %d", diff.Work, snn.Work, nn.Work)
	}
	if ratio := float64(nn.Work) / float64(diff.Work); ratio < 50 {
		t.Fatalf("NN/Diff work ratio %.0f, want around two orders of magnitude", ratio)
	}
}

func TestOCRReadsPlateExactly(t *testing.T) {
	// Find a frame with a fully visible plate and verify OCR reads it.
	src := vidsim.NewSource(vidsim.Datasets[0])
	for i := 0; i < 120*vidsim.FPS; i++ {
		for _, o := range src.Truth(i).Objects {
			if o.Kind != vidsim.Car || o.Plate == "" {
				continue
			}
			x, y, w, h := vidsim.PlateGeometry(o)
			if x < 4 || y < 0 || x+w > src.W-4 || y+h > src.H {
				continue
			}
			out, _ := OCR{}.Run([]*frame.Frame{src.Frame(i)})
			for _, d := range out.Detections {
				if d.Label == o.Plate {
					return // success
				}
			}
			// Look at a few more frames before failing: noise may perturb
			// one sample.
		}
	}
	t.Fatal("OCR never read a visible plate exactly in 120s")
}

func TestLicenseFindsPlates(t *testing.T) {
	frames := renderAt(t, "dashcam", 0, 90, fullFid())
	out, _ := RunAtFidelity(License{}, frames, fullFid())
	if len(out.Detections) == 0 {
		t.Fatal("License found no plates in 3s of dashcam")
	}
	for _, d := range out.Detections {
		if d.Label != "plate" {
			t.Fatalf("unexpected label %q", d.Label)
		}
	}
}

func TestColorFindsOnlyRed(t *testing.T) {
	src := vidsim.NewSource(vidsim.Datasets[0])
	// Scan for a frame with a red car near centre and one with no red car.
	foundRed := false
	for i := 0; i < 90*vidsim.FPS && !foundRed; i += 5 {
		tr := src.Truth(i)
		for _, o := range tr.Objects {
			if o.Red && o.X > src.W/4 && o.X+o.W < 3*src.W/4 {
				out, _ := Color{}.Run(src.Clip(i, 1))
				if len(out.Detections) > 0 && out.Detections[0].Label == "red" {
					foundRed = true
				}
			}
		}
	}
	if !foundRed {
		t.Fatal("Color never detected a centred red car")
	}
}

func TestF1Properties(t *testing.T) {
	ref := Output{PTS: []int{0, 1, 2}, Detections: []Detection{
		{PTS: 0, Label: "a", X: 0.5, Y: 0.5},
		{PTS: 1, Label: "a", X: 0.5, Y: 0.5},
	}}
	if f := F1(ref, ref); f != 1 {
		t.Fatalf("F1(x,x) = %v", f)
	}
	empty := Output{PTS: []int{0, 1, 2}}
	if f := F1(ref, empty); f != 0 {
		t.Fatalf("F1 vs empty = %v, want 0", f)
	}
	if f := F1(empty, empty); f != 1 {
		t.Fatalf("F1(empty,empty) = %v, want 1", f)
	}
	// Step expansion: a single consumed frame answering for the whole clip.
	step := Output{PTS: []int{0}, Detections: []Detection{{PTS: 0, Label: "a", X: 0.5, Y: 0.5}}}
	f := F1(ref, step)
	if f <= 0 || f > 1 {
		t.Fatalf("step-expanded F1 = %v", f)
	}
	// Wrong label never matches.
	wrong := Output{PTS: []int{0, 1, 2}, Detections: []Detection{
		{PTS: 0, Label: "b", X: 0.5, Y: 0.5},
		{PTS: 1, Label: "b", X: 0.5, Y: 0.5},
	}}
	if f := F1(ref, wrong); f != 0 {
		t.Fatalf("wrong-label F1 = %v, want 0", f)
	}
	// Position tolerance: far-away same-label detection does not match.
	far := Output{PTS: []int{0, 1, 2}, Detections: []Detection{
		{PTS: 0, Label: "a", X: 0.05, Y: 0.05},
		{PTS: 1, Label: "a", X: 0.05, Y: 0.05},
	}}
	if f := F1(ref, far); f != 0 {
		t.Fatalf("far-position F1 = %v, want 0", f)
	}
}

func TestRunAtFidelityRemapsCrop(t *testing.T) {
	scene, _ := opScene("Motion")
	f := fid(format.QBest, 720, s11, format.Crop50)
	frames := renderAt(t, scene, 0, 60, f)
	out, _ := RunAtFidelity(Motion{}, frames, f)
	for _, d := range out.Detections {
		if d.X < 0.25-1e-9 || d.X > 0.75+1e-9 || d.Y < 0.25-1e-9 || d.Y > 0.75+1e-9 {
			t.Fatalf("crop-remapped position (%v,%v) outside central half", d.X, d.Y)
		}
	}
}

func TestOutputLabels(t *testing.T) {
	o := Output{Detections: []Detection{{Label: "b"}, {Label: "a"}, {Label: "b"}}}
	got := o.Labels()
	if strings.Join(got, ",") != "a,b" {
		t.Fatalf("Labels() = %v", got)
	}
}

// Labels returns the sorted distinct labels in an output.
func (o Output) Labels() []string {
	set := map[string]bool{}
	for _, d := range o.Detections {
		set[d.Label] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}
