package frame

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomFrame(r *rand.Rand, w, h int) *Frame {
	f := New(w, h)
	r.Read(f.Y)
	r.Read(f.Cb)
	r.Read(f.Cr)
	return f
}

func TestNewDimensionsEven(t *testing.T) {
	for _, d := range [][2]int{{0, 0}, {1, 1}, {3, 5}, {160, 90}, {15, 15}} {
		f := New(d[0], d[1])
		if f.W%2 != 0 || f.H%2 != 0 {
			t.Fatalf("New(%d,%d) -> odd dims %dx%d", d[0], d[1], f.W, f.H)
		}
		if len(f.Y) != f.W*f.H || len(f.Cb) != (f.W/2)*(f.H/2) || len(f.Cr) != len(f.Cb) {
			t.Fatalf("New(%d,%d): plane sizes wrong", d[0], d[1])
		}
	}
}

func TestDownscaleIdentityReturnsReceiver(t *testing.T) {
	f := New(32, 18)
	if g := f.Downscale(32, 18); g != f {
		t.Fatal("identity Downscale did not return the receiver")
	}
	if g := f.Downscale(64, 64); g != f {
		t.Fatal("clamped (upscale) Downscale did not return the receiver")
	}
	if g := f.Downscale(16, 10); g == f || g.W != 16 || g.H != 10 {
		t.Fatalf("real downscale returned %v", g)
	}
}

func TestCropCenterIdentityReturnsReceiver(t *testing.T) {
	f := New(32, 18)
	if g := f.CropCenter(1); g != f {
		t.Fatal("CropCenter(1) did not return the receiver")
	}
	if g := f.CropCenter(0.5); g == f || g.W != 16 {
		t.Fatalf("CropCenter(0.5) returned %v", g)
	}
}

func TestDownscaleIntoMatchesDownscale(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := randomFrame(r, 64, 36)
	want := f.Downscale(20, 12)
	got := New(20, 12)
	f.DownscaleInto(got)
	if !Equal(want, got) || got.PTS != want.PTS {
		t.Fatal("DownscaleInto differs from Downscale")
	}
}

func TestNewBatch(t *testing.T) {
	batch := NewBatch(31, 17, 5) // odd dims round up to even, like New
	if len(batch) != 5 {
		t.Fatalf("batch size %d", len(batch))
	}
	single := New(31, 17)
	for i, f := range batch {
		if f.W != single.W || f.H != single.H {
			t.Fatalf("frame %d dims %dx%d, want %dx%d", i, f.W, f.H, single.W, single.H)
		}
		if len(f.Y) != len(single.Y) || len(f.Cb) != len(single.Cb) || len(f.Cr) != len(single.Cr) {
			t.Fatalf("frame %d plane sizes differ from New", i)
		}
	}
	// Full-slice expressions must keep writes through one frame's plane
	// from spilling into its arena neighbour via append.
	grown := append(batch[0].Y, 0xEE)
	_ = grown
	if batch[0].Cb[0] != 0 || batch[1].Y[0] != 0 {
		t.Fatal("append through a batch plane overwrote a neighbour")
	}
	// Writes land only in the addressed frame.
	for i := range batch[2].Y {
		batch[2].Y[i] = 9
	}
	if batch[1].Y[len(batch[1].Y)-1] != 0 || batch[3].Y[0] != 0 {
		t.Fatal("write to one batch frame bled into a neighbour")
	}
	if NewBatch(8, 8, 0) != nil {
		t.Fatal("empty batch not nil")
	}
}

func TestOver(t *testing.T) {
	for _, d := range [][2]int{{0, 0}, {1, 1}, {2, 2}, {5, 4}, {31, 17}, {160, 90}} {
		single := New(d[0], d[1])
		_, span := Over(d[0], d[1], nil)
		if span != single.Bytes() {
			t.Fatalf("%dx%d spans %d bytes, New allocates %d", d[0], d[1], span, single.Bytes())
		}
		buf := make([]byte, span+3) // bytes past the span are left alone
		for i := range buf {
			buf[i] = byte(i)
		}
		f, _ := Over(d[0], d[1], buf)
		if f.W != single.W || f.H != single.H || len(f.Y) != len(single.Y) ||
			len(f.Cb) != len(single.Cb) || len(f.Cr) != len(single.Cr) {
			t.Fatalf("%dx%d: %v with planes %d/%d/%d differs from New", d[0], d[1], &f, len(f.Y), len(f.Cb), len(f.Cr))
		}
		if &f.Y[0] != &buf[0] || &f.Cb[0] != &buf[len(f.Y)] || &f.Cr[len(f.Cr)-1] != &buf[span-1] {
			t.Fatalf("%dx%d: planes are not Y|Cb|Cr over the buffer", d[0], d[1])
		}
		_ = append(f.Y, 0xEE)
		_ = append(f.Cb, 0xEE)
		_ = append(f.Cr, 0xEE)
		for i := range buf {
			if buf[i] != byte(i) {
				t.Fatalf("%dx%d: append through a plane wrote byte %d of the buffer", d[0], d[1], i)
			}
		}
		if short, n := Over(d[0], d[1], buf[:span-1]); n != span || short.Y != nil || short.Cb != nil || short.Cr != nil {
			t.Fatalf("%dx%d: a buffer one byte short was carved", d[0], d[1])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := randomFrame(r, 32, 18)
	g := f.Clone()
	if !Equal(f, g) {
		t.Fatal("clone differs from original")
	}
	g.Y[0] ^= 0xFF
	if Equal(f, g) {
		t.Fatal("mutating clone changed original")
	}
}

func TestDownscalePreservesMean(t *testing.T) {
	f := New(64, 64)
	for i := range f.Y {
		f.Y[i] = 100
	}
	g := f.Downscale(16, 16)
	for i, v := range g.Y {
		if v != 100 {
			t.Fatalf("downscale of constant frame changed sample %d to %d", i, v)
		}
	}
	if g.W != 16 || g.H != 16 {
		t.Fatalf("downscale dims %dx%d", g.W, g.H)
	}
}

func TestDownscaleClampsUpscale(t *testing.T) {
	f := New(16, 16)
	g := f.Downscale(64, 64)
	if g.W != 16 || g.H != 16 {
		t.Fatalf("upscale not clamped: %dx%d", g.W, g.H)
	}
}

func TestDownscaleIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := randomFrame(r, 24, 12)
	g := f.Downscale(24, 12)
	if !Equal(f, g) {
		t.Fatal("identity downscale altered frame")
	}
}

// Property: downscaling never produces samples outside the source range.
func TestDownscaleRangeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	check := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		f := randomFrame(rr, 8+rr.Intn(56), 8+rr.Intn(56))
		var lo, hi byte = 255, 0
		for _, v := range f.Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		g := f.Downscale(2+rr.Intn(f.W-1), 2+rr.Intn(f.H-1))
		for _, v := range g.Y {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: r}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCropCenterDims(t *testing.T) {
	f := New(160, 90)
	g := f.CropCenter(0.5)
	if g.W != 80 || g.H != 44 { // 45 rounded down to even
		t.Fatalf("crop 50%% dims = %dx%d", g.W, g.H)
	}
	id := f.CropCenter(1.0)
	if !Equal(f, id) {
		t.Fatal("crop 100% altered frame")
	}
}

func TestCropCenterTakesCentre(t *testing.T) {
	f := New(40, 40)
	f.FillRect(0, 0, 40, 40, 10, 128, 128)
	f.FillRect(16, 16, 8, 8, 200, 128, 128) // bright centre block
	g := f.CropCenter(0.5)
	var mean int
	for _, v := range g.Y {
		mean += int(v)
	}
	mean /= len(g.Y)
	if mean < 40 {
		t.Fatalf("cropped centre mean %d; crop did not keep the centre", mean)
	}
	// The corner content (value 10 only) must dominate a corner crop check:
	// top-left sample of the crop should still be background since centre
	// block spans 16..24 and crop starts at 10.
	if g.Y[0] != 10 {
		t.Fatalf("crop misaligned: corner sample %d", g.Y[0])
	}
}

func TestFillRectClips(t *testing.T) {
	f := New(16, 16)
	f.FillRect(-4, -4, 100, 100, 77, 10, 20)
	for _, v := range f.Y {
		if v != 77 {
			t.Fatal("FillRect full cover failed")
		}
	}
	f.FillRect(100, 100, 10, 10, 1, 1, 1) // fully out of bounds: no-op
	if f.Y[0] != 77 {
		t.Fatal("out-of-bounds FillRect wrote data")
	}
}
