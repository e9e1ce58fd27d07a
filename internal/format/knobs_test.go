package format

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpaceSizes(t *testing.T) {
	fs := FidelitySpace()
	if got, want := len(fs), 4*3*10*5; got != want {
		t.Fatalf("|F| = %d, want %d", got, want)
	}
	// |C|: every speed step at every keyframe interval, plus the raw bypass.
	cs := len(SpeedSteps)*len(KeyframeIntervals) + 1
	if want := 5*5 + 1; cs != want {
		t.Fatalf("|C| = %d, want %d", cs, want)
	}
	// Table 1: about 15K possible storage-format combinations.
	if got := len(fs) * cs; got != 15600 {
		t.Fatalf("|F x C| = %d, want 15600", got)
	}
	seen := make(map[Fidelity]bool, len(fs))
	for _, f := range fs {
		if seen[f] {
			t.Fatalf("duplicate fidelity %v in space", f)
		}
		seen[f] = true
	}
}

func TestQualityQuantStepMonotone(t *testing.T) {
	prev := 1 << 30
	for _, q := range Qualities {
		if s := q.QuantStep(); s >= prev {
			t.Fatalf("quant step not strictly decreasing with richer quality: %v -> %d (prev %d)", q, s, prev)
		} else {
			prev = s
		}
	}
	if QBest.QuantStep() != 1 {
		t.Fatalf("best quality must be lossless (step 1), got %d", QBest.QuantStep())
	}
}

func TestSpeedStepFlateLevelMonotone(t *testing.T) {
	prev := 100
	for _, s := range SpeedSteps {
		if l := s.FlateLevel(); l >= prev {
			t.Fatalf("flate level must strictly decrease for faster steps: %v -> %d (prev %d)", s, l, prev)
		} else {
			prev = l
		}
	}
}

func TestSamplingKeep(t *testing.T) {
	for _, s := range Samplings {
		n := 3000
		kept := 0
		for i := 0; i < n; i++ {
			if s.Keep(i) {
				kept++
			}
		}
		want := n * s.Num / s.Den
		if kept != want {
			t.Errorf("sampling %v kept %d of %d frames, want %d", s, kept, n, want)
		}
		// A run of Den consecutive frames always contains exactly Num kept.
		for start := 0; start < 120; start++ {
			c := 0
			for i := start * s.Den; i < (start+1)*s.Den; i++ {
				if s.Keep(i) {
					c++
				}
			}
			if c != s.Num {
				t.Fatalf("sampling %v window %d kept %d, want %d", s, start, c, s.Num)
			}
		}
	}
}

func TestSamplingKeepFirstFrameFullRate(t *testing.T) {
	if !(Sampling{1, 1}).Keep(0) {
		t.Fatal("full-rate sampling must keep frame 0")
	}
}

func randFidelity(r *rand.Rand) Fidelity {
	return Fidelity{
		Quality:  Qualities[r.Intn(len(Qualities))],
		Crop:     Crops[r.Intn(len(Crops))],
		Res:      Resolutions[r.Intn(len(Resolutions))],
		Sampling: Samplings[r.Intn(len(Samplings))],
	}
}

// TestRicherEqPartialOrder checks reflexivity, antisymmetry and transitivity
// of the richer-than-or-equal relation on random fidelity triples.
func TestRicherEqPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		a, b, c := randFidelity(r), randFidelity(r), randFidelity(r)
		if !a.RicherEq(a) {
			t.Fatalf("not reflexive at %v", a)
		}
		if a.RicherEq(b) && b.RicherEq(a) && a != b {
			t.Fatalf("antisymmetry violated: %v vs %v", a, b)
		}
		if a.RicherEq(b) && b.RicherEq(c) && !a.RicherEq(c) {
			t.Fatalf("transitivity violated: %v >= %v >= %v", a, b, c)
		}
	}
}

// TestMaxIsLeastUpperBound checks that knob-wise Max produces an upper bound
// of both arguments, and that it is the least one: any other upper bound is
// richer than or equal to it.
func TestMaxIsLeastUpperBound(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	space := FidelitySpace()
	for i := 0; i < 2000; i++ {
		a, b := randFidelity(r), randFidelity(r)
		m := a.Max(b)
		if !m.RicherEq(a) || !m.RicherEq(b) {
			t.Fatalf("Max(%v,%v)=%v is not an upper bound", a, b, m)
		}
		for _, u := range space {
			if u.RicherEq(a) && u.RicherEq(b) && !u.RicherEq(m) {
				t.Fatalf("Max(%v,%v)=%v is not least: %v is a smaller upper bound", a, b, m, u)
			}
		}
	}
}

func TestMaxCommutativeIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(i, j uint16) bool {
		a := randFidelity(r)
		b := randFidelity(r)
		return a.Max(b) == b.Max(a) && a.Max(a) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRelPixelsMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		a, b := randFidelity(r), randFidelity(r)
		if a.RicherEq(b) && a.RelPixels() < b.RelPixels() {
			t.Fatalf("RelPixels not monotone: %v (%.4f) richer than %v (%.4f)",
				a, a.RelPixels(), b, b.RelPixels())
		}
	}
	if got := MaxFidelity().RelPixels(); got != 1.0 {
		t.Fatalf("max fidelity RelPixels = %v, want 1.0", got)
	}
}

func TestRelPixelsIgnoresQuality(t *testing.T) {
	f := Fidelity{Quality: QWorst, Crop: Crop75, Res: 360, Sampling: Sampling{1, 2}}
	g := f
	g.Quality = QBest
	if f.RelPixels() != g.RelPixels() {
		t.Fatalf("quality changed pixel quantity: %v vs %v", f.RelPixels(), g.RelPixels())
	}
}

func TestParseFidelityRoundTrip(t *testing.T) {
	for _, f := range FidelitySpace() {
		got, err := ParseFidelity(f.String())
		if err != nil {
			t.Fatalf("ParseFidelity(%q): %v", f.String(), err)
		}
		if got != f {
			t.Fatalf("round trip %q -> %v", f.String(), got)
		}
	}
}

func TestParseFidelityErrors(t *testing.T) {
	for _, s := range []string{"", "best", "best-720p-1", "great-720p-1-100%", "best-720x-1-100%", "best-720p-x-100%", "best-720p-1-x"} {
		if _, err := ParseFidelity(s); err == nil {
			t.Errorf("ParseFidelity(%q) succeeded, want error", s)
		}
	}
}

func TestStorageFormatSatisfies(t *testing.T) {
	sf := StorageFormat{Fidelity: MaxFidelity(), Coding: Coding{Speed: SpeedSlowest, KeyframeI: 250}}
	for _, f := range FidelitySpace() {
		if !sf.Satisfies(ConsumptionFormat{Fidelity: f}) {
			t.Fatalf("golden format must satisfy every CF; failed at %v", f)
		}
	}
	low := StorageFormat{Fidelity: Fidelity{Quality: QWorst, Crop: Crop50, Res: 60, Sampling: Sampling{1, 30}}}
	cf := ConsumptionFormat{Fidelity: MaxFidelity()}
	if low.Satisfies(cf) {
		t.Fatal("poorest SF must not satisfy richest CF")
	}
}

func TestCodingString(t *testing.T) {
	c := Coding{Speed: SpeedFast, KeyframeI: 10}
	if got := c.String(); got != "10-fast" {
		t.Fatalf("Coding.String() = %q, want 10-fast", got)
	}
	if got := RawCoding.String(); got != "RAW" {
		t.Fatalf("RawCoding.String() = %q", got)
	}
}

func TestFidelityStringMatchesTable3Style(t *testing.T) {
	f := Fidelity{Quality: QBest, Crop: Crop50, Res: 200, Sampling: Sampling{1, 2}}
	if got := f.String(); got != "best-200p-1/2-50%" {
		t.Fatalf("Fidelity.String() = %q", got)
	}
}

// TestKeysMatchSprintf: Fidelity.Key and StorageFormat.Key are built with
// strconv appends, and must spell exactly what the fmt.Sprintf formulation
// spelled — segment keys and persisted configurations hold these strings —
// over every quality × resolution × sampling × crop × coding value, plus an
// out-of-range quality and speed step.
func TestKeysMatchSprintf(t *testing.T) {
	codings := []Coding{RawCoding, {Speed: SpeedStep(9), KeyframeI: 7}}
	for _, s := range SpeedSteps {
		for _, k := range KeyframeIntervals {
			codings = append(codings, Coding{Speed: s, KeyframeI: k})
		}
	}
	fids := append(FidelitySpace(), Fidelity{Quality: Quality(7), Crop: Crop100, Res: 720, Sampling: Sampling{1, 1}})
	n := 0
	for _, f := range fids {
		want := fmt.Sprintf("%s-%dp-%d.%d-%d", f.Quality, int(f.Res), f.Sampling.Num, f.Sampling.Den, int(f.Crop))
		if got := f.Key(); got != want {
			t.Fatalf("%v.Key() = %q, want %q", f, got, want)
		}
		for _, c := range codings {
			coding := "RAW"
			if !c.Raw {
				coding = fmt.Sprintf("%d-%s", c.KeyframeI, c.Speed)
			}
			if got := c.String(); got != coding {
				t.Fatalf("%#v.String() = %q, want %q", c, got, coding)
			}
			sf := StorageFormat{Fidelity: f, Coding: c}
			if got := sf.Key(); got != want+"_"+coding {
				t.Fatalf("%v.Key() = %q, want %q", sf, got, want+"_"+coding)
			}
			n++
		}
	}
	if n < 15600 {
		t.Fatalf("checked %d storage formats, want at least |F x C| = 15600", n)
	}
}
