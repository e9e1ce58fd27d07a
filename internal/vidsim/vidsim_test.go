package vidsim

import (
	"strings"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
)

func TestDims(t *testing.T) {
	w, h := Dims(720)
	if w != 160 || h != 90 {
		t.Fatalf("Dims(720) = %dx%d, want 160x90", w, h)
	}
	for _, r := range format.Resolutions {
		w, h := Dims(r)
		if w%2 != 0 || h%2 != 0 || w < 2 || h < 2 {
			t.Errorf("Dims(%v) = %dx%d not even/positive", r, w, h)
		}
	}
	// Monotone in resolution.
	pw, ph := 0, 0
	for _, r := range format.Resolutions {
		w, h := Dims(r)
		if w < pw || h < ph {
			t.Fatalf("Dims not monotone at %v", r)
		}
		pw, ph = w, h
	}
}

func TestDatasets(t *testing.T) {
	if len(Datasets) != 6 {
		t.Fatalf("want 6 datasets, have %d", len(Datasets))
	}
	names := map[string]bool{}
	for _, d := range Datasets {
		if names[d.Name] {
			t.Fatalf("duplicate dataset %q", d.Name)
		}
		names[d.Name] = true
		if _, err := DatasetByName(d.Name); err != nil {
			t.Errorf("DatasetByName(%q): %v", d.Name, err)
		}
	}
	if _, err := DatasetByName("nope"); err == nil {
		t.Error("DatasetByName(nope) succeeded")
	}
	for _, want := range []string{"jackson", "miami", "tucson", "dashcam", "park", "airport"} {
		if !names[want] {
			t.Errorf("missing dataset %q", want)
		}
	}
}

func TestFrameDeterministic(t *testing.T) {
	s := NewSource(Datasets[0])
	a := s.Frame(123)
	b := s.Frame(123)
	if !frame.Equal(a, b) {
		t.Fatal("rendering is not deterministic")
	}
	if a.PTS != 123 {
		t.Fatalf("PTS = %d", a.PTS)
	}
}

func TestFramesDiffer(t *testing.T) {
	s := NewSource(Datasets[0])
	a := s.Frame(0)
	b := s.Frame(10)
	if frame.Equal(a, b) {
		t.Fatal("distinct frames identical; no temporal variation")
	}
}

func TestTruthDeterministicAndMoving(t *testing.T) {
	for _, sc := range Datasets {
		s := NewSource(sc)
		found := false
		for i := 0; i < 30*FPS && !found; i += 7 {
			tr1 := s.Truth(i)
			tr2 := s.Truth(i)
			if len(tr1.Objects) != len(tr2.Objects) {
				t.Fatalf("%s: truth not deterministic at frame %d", sc.Name, i)
			}
			if len(tr1.Objects) > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no objects in first 30s", sc.Name)
		}
	}
}

func TestObjectsPersistAcrossFrames(t *testing.T) {
	s := NewSource(Datasets[0])
	// Find a car and track it for a second: it must persist and move.
	var id, at int
	found := false
	for i := 0; i < 60*FPS && !found; i++ {
		for _, o := range s.Truth(i).Objects {
			if o.Kind == Car && o.X > 0 && o.X < s.W/2 {
				id, at, found = o.ID, i, true
				break
			}
		}
	}
	if !found {
		t.Fatal("no car found")
	}
	find := func(i int) (Object, bool) {
		for _, o := range s.Truth(i).Objects {
			if o.ID == id {
				return o, true
			}
		}
		return Object{}, false
	}
	o1, ok1 := find(at)
	o2, ok2 := find(at + FPS/2)
	if !ok1 || !ok2 {
		t.Fatal("car did not persist for half a second")
	}
	if o1.X == o2.X {
		t.Fatal("car did not move")
	}
	if o1.Plate != o2.Plate {
		t.Fatal("plate changed across frames")
	}
}

func TestPlatesRendered(t *testing.T) {
	s := NewSource(Datasets[0])
	for i := 0; i < 120*FPS; i++ {
		tr := s.Truth(i)
		for _, o := range tr.Objects {
			if o.Kind != Car || o.Plate == "" {
				continue
			}
			if len(o.Plate) != PlateDigits || strings.Trim(o.Plate, "0123456789") != "" {
				t.Fatalf("bad plate %q", o.Plate)
			}
			x, y, w, h := PlateGeometry(o)
			if x < o.X || y < o.Y || x+w > o.X+o.W+1 || y+h > o.Y+o.H+1 {
				t.Fatalf("plate geometry %d,%d,%d,%d outside car %+v", x, y, w, h, o)
			}
			if x < 0 || x+w > s.W || y+h > s.H {
				continue // partially off-screen; nothing to verify in pixels
			}
			// The rendered middle column of each digit must carry the digit
			// luma (noise is applied after; tolerate its sigma).
			f := s.Frame(i)
			for di := 0; di < PlateDigits; di++ {
				want := int(DigitLuma(o.Plate[di]))
				got := int(f.Y[(y+1)*f.W+x+plateLead+di*platePitch+1])
				d := got - want
				if d < 0 {
					d = -d
				}
				if d > s.Scene.NoiseSigma {
					t.Fatalf("frame %d digit %d: luma %d want %d±%d", i, di, got, want, s.Scene.NoiseSigma)
				}
			}
			return // one fully-visible plate verified is enough
		}
	}
	t.Fatal("no fully visible plate found in 120s")
}

// meanAbsDiff returns the mean absolute luma difference of two frames of
// the same dimensions.
func meanAbsDiff(a, b *frame.Frame) float64 {
	var sum int
	for i := range a.Y {
		sum += max(int(a.Y[i])-int(b.Y[i]), int(b.Y[i])-int(a.Y[i]))
	}
	return float64(sum) / float64(len(a.Y))
}

func TestDashcamPans(t *testing.T) {
	dash, _ := DatasetByName("dashcam")
	park, _ := DatasetByName("park")
	sd, sp := NewSource(dash), NewSource(park)
	// Mean inter-frame difference should be much larger for the panning
	// dashcam scene than for the calm parking lot.
	dDash := meanAbsDiff(sd.Frame(100), sd.Frame(101))
	dPark := meanAbsDiff(sp.Frame(100), sp.Frame(101))
	if dDash < 2*dPark {
		t.Fatalf("dashcam motion %.2f not >> park motion %.2f", dDash, dPark)
	}
}

func TestClip(t *testing.T) {
	s := NewSource(Datasets[2])
	c := s.Clip(90, 5)
	if len(c) != 5 {
		t.Fatalf("clip length %d", len(c))
	}
	for i, f := range c {
		if f.PTS != 90+i {
			t.Fatalf("clip pts[%d] = %d", i, f.PTS)
		}
	}
}

func TestRedCarsExist(t *testing.T) {
	s := NewSource(Datasets[0])
	red := false
	for i := 0; i < 60*FPS && !red; i += 10 {
		for _, o := range s.Truth(i).Objects {
			if o.Red {
				red = true
			}
		}
	}
	if !red {
		t.Fatal("no red cars in 60s of jackson")
	}
}
