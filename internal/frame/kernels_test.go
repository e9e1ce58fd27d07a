package frame

import (
	"bytes"
	"math/rand"
	"testing"
)

// refBoxScale is boxScale as it stood before the span-table and lane
// rewrites, kept verbatim as the oracle: two divisions per destination sample
// and a walk of its whole source box.
func refBoxScale(dst []byte, dw, dh int, src []byte, sw, sh int) {
	if dw == 0 || dh == 0 {
		return
	}
	for dy := 0; dy < dh; dy++ {
		sy0 := dy * sh / dh
		sy1 := (dy + 1) * sh / dh
		if sy1 <= sy0 {
			sy1 = sy0 + 1
		}
		for dx := 0; dx < dw; dx++ {
			sx0 := dx * sw / dw
			sx1 := (dx + 1) * sw / dw
			if sx1 <= sx0 {
				sx1 = sx0 + 1
			}
			var sum, n int
			for y := sy0; y < sy1; y++ {
				row := y * sw
				for x := sx0; x < sx1; x++ {
					sum += int(src[row+x])
					n++
				}
			}
			dst[dy*dw+dx] = byte(sum / n)
		}
	}
}

// checkBoxScale scales one seeded-random sw×sh plane to dw×dh both ways.
// Every third plane is saturated: the largest box sums.
func checkBoxScale(t *testing.T, seed int64, dw, dh, sw, sh int) {
	t.Helper()
	src := make([]byte, sw*sh)
	if seed%3 == 0 {
		for i := range src {
			src[i] = 255
		}
	} else {
		rand.New(rand.NewSource(seed)).Read(src)
	}
	got, want := make([]byte, dw*dh), make([]byte, dw*dh)
	boxScale(got, dw, dh, src, sw, sh)
	refBoxScale(want, dw, dh, src, sw, sh)
	if !bytes.Equal(got, want) {
		t.Fatalf("%dx%d -> %dx%d seed %d: plane differs from the reference", sw, sh, dw, dh, seed)
	}
}

// hotShapes are the conversions a cold Query A runs on every frame — RAW
// 540p (120×68 here, chroma 60×34) to 180p and 144p, luma and chroma — and
// the edges of the vector path: source widths 15, 16 and 17, sw-k+1 = 16
// for a box k columns wide, destination widths 7 and 8, one-sample boxes,
// and largest boxes of 257 samples (a 16-bit lane of 255s, vector) and 258
// (lane loop), tall, wide and two columns wide.
var hotShapes = [][4]int{
	{40, 22, 120, 68}, {20, 11, 60, 34}, {32, 18, 120, 68}, {16, 9, 60, 34},
	{8, 3, 15, 9}, {8, 3, 16, 9}, {8, 3, 17, 9}, {8, 2, 18, 6}, {7, 3, 21, 9}, {8, 3, 24, 9},
	{16, 4, 16, 4}, {16, 3, 17, 4}, {8, 1, 33, 7}, {16, 1, 16, 257}, {16, 1, 16, 258},
	{8, 1, 2056, 1}, {8, 1, 2064, 1}, {8, 1, 16, 128}, {8, 1, 16, 129},
}

func TestBoxScaleMatchesReference(t *testing.T) {
	// {dw, dh, sw, sh}: degenerate planes, integer and non-integer ratios,
	// odd widths, the conversions the derived configuration performs
	// (720p = 160×90 here), one axis unscaled, ratios above one, whose empty
	// source ranges are widened to one sample, and planes too wide for the
	// on-stack tables.
	cases := [][4]int{
		{1, 1, 1, 1}, {1, 1, 2, 5}, {2, 5, 2, 5}, {1, 2, 5, 2}, {3, 3, 3, 3}, {3, 3, 17, 4},
		{0, 4, 8, 8}, {4, 0, 8, 8},
		{80, 45, 160, 90}, {40, 22, 160, 90}, {53, 30, 160, 90},
		{136, 76, 160, 90}, {106, 60, 160, 90}, {120, 68, 160, 90}, {68, 38, 80, 45},
		{159, 89, 160, 90}, {7, 5, 161, 91}, {33, 19, 137, 77},
		{160, 45, 160, 90}, {80, 90, 160, 90},
		{5, 5, 3, 3}, {17, 4, 4, 17}, {160, 90, 136, 76}, {9, 2, 2, 9},
		{300, 7, 400, 9}, {1, 3, 512, 5}, {255, 3, 256, 4},
		// Boxes as tall as a 16-bit lane holds (257 rows of 255), one row
		// taller and several lanes' worth — seed%3 == 0 saturates the plane —
		// widths that end short of a word, and a single column.
		{3, 1, 9, 257}, {3, 1, 9, 258}, {2, 1, 16, 600}, {5, 2, 60, 514}, {5, 2, 60, 516},
		{20, 3, 60, 9}, {31, 5, 137, 21}, {2, 2, 7, 7}, {7, 3, 7, 9}, {1, 4, 1, 700}, {1, 1, 1, 258},
	}
	cases = append(cases, hotShapes...)
	for i, c := range cases {
		for seed := int64(0); seed < 3; seed++ {
			checkBoxScale(t, int64(i)*3+seed, c[0], c[1], c[2], c[3])
		}
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 300; i++ {
		checkBoxScale(t, rng.Int63(), 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(170), 1+rng.Intn(100))
	}
}

// TestReciprocalExact checks the multiplier boxScale divides with against
// the division it replaces, for every box area that has one and every sum a
// box of that area can reach.
func TestReciprocalExact(t *testing.T) {
	if reciprocal(lane255s+1) != 0 {
		t.Fatalf("area %d has a reciprocal, and nothing checks it", lane255s+1)
	}
	for area := uint64(1); area <= lane255s; area++ {
		r := reciprocal(int(area))
		for sum := uint64(0); sum <= 255*area; sum++ {
			if sum*r>>32 != sum/area {
				t.Fatalf("%d·%d>>32 = %d, want %d/%d = %d", sum, r, sum*r>>32, sum, area, sum/area)
			}
		}
	}
}

// TestHalfReciprocalExact checks the multiplier boxScaleVec divides with,
// (reciprocal(area)+1)/2 and a shift of 31, the same way.
func TestHalfReciprocalExact(t *testing.T) {
	for area := uint64(1); area <= lane255s; area++ {
		r := (reciprocal(int(area)) + 1) >> 1
		if r >= 1<<32 {
			t.Fatalf("area %d: multiplier %d does not fit 32 bits", area, r)
		}
		for sum := uint64(0); sum <= 255*area; sum++ {
			if sum*r>>31 != sum/area {
				t.Fatalf("%d·%d>>31 = %d, want %d/%d = %d", sum, r, sum*r>>31, sum, area, sum/area)
			}
		}
	}
}

func FuzzBoxScale(f *testing.F) {
	f.Add(uint16(136), uint16(76), uint16(159), uint16(89), int64(1))
	f.Add(uint16(5), uint16(5), uint16(2), uint16(2), int64(2))
	f.Add(uint16(1), uint16(1), uint16(1), uint16(4), int64(3))
	f.Add(uint16(3), uint16(1), uint16(8), uint16(257), int64(3))
	for i, c := range hotShapes {
		f.Add(uint16(c[0]), uint16(c[1]), uint16(c[2]-1), uint16(c[3]-1), int64(i))
	}
	f.Fuzz(func(t *testing.T, dw, dh, sw, sh uint16, seed int64) {
		if (int(sw)+1)*(int(sh)+1) > 1<<22 || int(dw)*int(dh) > 1<<22 {
			t.Skip("the reference walks every source sample of every box")
		}
		checkBoxScale(t, seed, int(dw), int(dh), int(sw)+1, int(sh)+1)
	})
}

// BenchmarkBoxScale scales one RAW 540p frame's planes (120×68 luma, two
// 60×34 chroma) to 180p, as Diff's retrieval does for every frame.
func BenchmarkBoxScale(b *testing.B) {
	src := make([]byte, 120*68)
	rand.New(rand.NewSource(1)).Read(src)
	dst := make([]byte, 40*22)
	for b.Loop() {
		boxScale(dst, 40, 22, src, 120, 68)
		boxScale(dst, 20, 11, src, 60, 34)
		boxScale(dst, 20, 11, src, 60, 34)
	}
}
