package ops

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
)

// refBoxBlur3 is boxBlur3 as it stood before the separable rewrite, kept
// verbatim as the oracle: nine loads and one division per sample over a full
// copy of the plane.
func refBoxBlur3(y []byte, w, h int, scratch []byte) {
	copy(scratch, y)
	for yy := 1; yy < h-1; yy++ {
		for xx := 1; xx < w-1; xx++ {
			i := yy*w + xx
			s := int(scratch[i-w-1]) + int(scratch[i-w]) + int(scratch[i-w+1]) +
				int(scratch[i-1]) + int(scratch[i]) + int(scratch[i+1]) +
				int(scratch[i+w-1]) + int(scratch[i+w]) + int(scratch[i+w+1])
			y[i] = byte(s / 9)
		}
	}
}

// refCellStats is cellStats.update as it stood before the integer rewrite,
// kept verbatim as the oracle: one float64 accumulation and one x/px
// division per sample.
func refCellStats(f *frame.Frame, px int) *cellStats {
	g := new(cellStats)
	if px < 2 {
		px = 2
	}
	cw := (f.W + px - 1) / px
	ch := (f.H + px - 1) / px
	n := cw * ch
	g.cw, g.ch, g.px = cw, ch, px
	g.mean = growZero(g.mean, n)
	g.variance = growZero(g.variance, n)
	g.hGrad = growZero(g.hGrad, n)
	g.flips = growZero(g.flips, n)
	sum, sum2, grad, flip, count := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	for y := 0; y < f.H; y++ {
		cy := y / px
		row := y * f.W
		lastSig := 0 // sign of the last significant gradient in this row
		for x := 0; x < f.W; x++ {
			c := cy*cw + x/px
			v := float64(f.Y[row+x])
			sum[c] += v
			sum2[c] += v * v
			count[c]++
			if x > 0 {
				gv := int(f.Y[row+x]) - int(f.Y[row+x-1])
				ag := gv
				if ag < 0 {
					ag = -ag
				}
				grad[c] += float64(ag)
				if ag >= sigGrad {
					sig := 1
					if gv < 0 {
						sig = -1
					}
					if lastSig == -sig {
						flip[c]++
					}
					lastSig = sig
				}
			}
		}
	}
	for c := range sum {
		if count[c] == 0 {
			continue
		}
		m := sum[c] / count[c]
		g.mean[c] = m
		g.variance[c] = sum2[c]/count[c] - m*m
		g.hGrad[c] = grad[c] / count[c]
		g.flips[c] = flip[c] / count[c]
	}
	return g
}

// kernelDims are the plane sizes every kernel is compared at: degenerate,
// thinner than the blur window, odd, the widths where the vector blur's
// blocks change (17 is below one block of sixteen outputs, 18 is one, 19 and
// 33 end in an overlapping block, 34 is two), and the sizes the derived
// configuration consumes.
var kernelDims = [][2]int{
	{1, 1}, {2, 5}, {5, 2}, {3, 3}, {3, 7}, {7, 3}, {17, 4}, {4, 17}, {18, 5},
	{19, 4}, {33, 19}, {34, 5}, {106, 60}, {136, 76}, {160, 90}, {161, 91},
}

// testPlane fills a w×h plane from rng. Kind 0 is uniform noise; kind 1 is
// plate-like — runs of ±40 steps around mid-grey — so significant gradients
// and sign flips occur; kind 2 is saturated, the largest sums a plane holds.
func testPlane(rng *rand.Rand, w, h, kind int) []byte {
	p := make([]byte, w*h)
	for i := range p {
		switch kind {
		case 0:
			p[i] = byte(rng.Intn(256))
		case 1:
			p[i] = byte(128 + 40*(rng.Intn(3)-1) + rng.Intn(5))
		default:
			p[i] = 255
		}
	}
	return p
}

func TestBoxBlur3MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, d := range kernelDims {
		w, h := d[0], d[1]
		for kind := 0; kind < 3; kind++ {
			got := testPlane(rng, w, h, kind)
			want := append([]byte(nil), got...)
			refScratch := make([]byte, w*h)
			var s []byte // shared by all passes, as in NN.Run
			for pass := 1; pass <= nnConvPasses; pass++ {
				s = boxBlur3(got, w, h, s)
				refBoxBlur3(want, w, h, refScratch)
				if !bytes.Equal(got, want) {
					t.Fatalf("%dx%d kind %d: plane differs from the reference after pass %d", w, h, kind, pass)
				}
			}
		}
	}
}

// TestBoxBlur3ScratchCarriesNothing: a scratch left behind by a larger,
// different plane must not change the result — the "no state across frames"
// half of the FrameIndependent contract.
func TestBoxBlur3ScratchCarriesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	dirty := boxBlur3(testPlane(rng, 160, 90, 0), 160, 90, nil)
	plane := testPlane(rng, 33, 19, 0)
	got := append([]byte(nil), plane...)
	boxBlur3(got, 33, 19, dirty)
	want := append([]byte(nil), plane...)
	boxBlur3(want, 33, 19, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("a reused scratch changed the blur")
	}
}

func FuzzBoxBlur3(f *testing.F) {
	f.Add(uint8(3), uint8(3), int64(1))
	f.Add(uint8(160), uint8(90), int64(2))
	f.Add(uint8(17), uint8(4), int64(3))
	f.Fuzz(func(t *testing.T, w8, h8 uint8, seed int64) {
		w, h := int(w8)+1, int(h8)+1
		rng := rand.New(rand.NewSource(seed))
		got := testPlane(rng, w, h, int(seed&1))
		want := append([]byte(nil), got...)
		var s []byte
		refScratch := make([]byte, w*h)
		for pass := 0; pass < 3; pass++ {
			s = boxBlur3(got, w, h, s)
			refBoxBlur3(want, w, h, refScratch)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%dx%d seed %d: plane differs from the reference", w, h, seed)
		}
	})
}

// TestNinthsExact checks the multiply-and-shift division over every sum a
// 3×3 window of bytes can reach, in every lane.
func TestNinthsExact(t *testing.T) {
	for x := uint64(0); x <= 9*255; x++ {
		y := 9*255 - x
		got := ninths(x | y<<16 | x<<32 | y<<48)
		want := x/9 | y/9<<16 | x/9<<32 | y/9<<48
		if got != want {
			t.Fatalf("ninths of lanes %d,%d = %#x, want %#x", x, y, got, want)
		}
	}
}

// sameBits reports the first index at which two float64 slices of one
// length differ in their bit patterns, or -1. No tolerance: the integer
// rewrite claims the same bits.
func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestCellStatsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	var g, m cellStats // reused across every case, as the Run loops reuse them
	for _, d := range kernelDims {
		w, h := d[0], d[1]
		for kind := 0; kind < 3; kind++ {
			for _, px := range []int{0, 2, 3, 5, 7, 8, 10, 45, 200} {
				f := &frame.Frame{W: w, H: h, Y: testPlane(rng, w, h, kind)}
				g.update(f.Y, w, h, px)
				m.updateMeans(f.Y, w, h, px)
				want := refCellStats(f, px)
				name := fmt.Sprintf("%dx%d kind %d px %d", w, h, kind, px)
				if g.cw != want.cw || g.ch != want.ch || g.px != want.px || m.cw != want.cw || m.ch != want.ch || len(m.mean) != len(want.mean) {
					t.Fatalf("%s: grid %dx%d/%d, means-only %dx%d, reference %dx%d/%d", name, g.cw, g.ch, g.px, m.cw, m.ch, want.cw, want.ch, want.px)
				}
				for _, fld := range []struct {
					name      string
					got, want []float64
				}{
					{"mean", g.mean, want.mean},
					{"variance", g.variance, want.variance},
					{"hGrad", g.hGrad, want.hGrad},
					{"flips", g.flips, want.flips},
					{"means-only mean", m.mean, want.mean},
				} {
					if i := sameBits(fld.got, fld.want); i >= 0 {
						t.Fatalf("%s: %s[%d] = %v, reference %v", name, fld.name, i, fld.got[i], fld.want[i])
					}
				}
			}
		}
	}
	// updateMeans' portable path on every host: a plane narrower than
	// vec.ColumnSums' sixteen columns, and bands of cell rows taller than its
	// 257 (the last band of 84 rows takes the kernel where it runs); then its
	// tallest band, saturated, whose column sums fill the 16-bit lanes.
	for _, c := range []struct{ w, h, px, kind int }{
		{15, 40, 4, 0}, {15, 40, 4, 2}, {40, 600, 258, 2}, {40, 600, 300, 0}, {40, 514, 257, 2},
	} {
		f := &frame.Frame{W: c.w, H: c.h, Y: testPlane(rng, c.w, c.h, c.kind)}
		m.updateMeans(f.Y, c.w, c.h, c.px)
		checkMeans(t, &m, refCellStats(f, c.px), fmt.Sprintf("%dx%d kind %d px %d", c.w, c.h, c.kind, c.px))
	}
}

// checkMeans fails t unless the means-only grid g has want's shape and mean
// bits.
func checkMeans(t *testing.T, g, want *cellStats, name string) {
	t.Helper()
	if g.cw != want.cw || g.ch != want.ch || g.px != want.px || len(g.mean) != len(want.mean) {
		t.Fatalf("%s: means-only grid %dx%d/%d, reference %dx%d/%d", name, g.cw, g.ch, g.px, want.cw, want.ch, want.px)
	}
	if i := sameBits(g.mean, want.mean); i >= 0 {
		t.Fatalf("%s: means-only mean[%d] = %v, reference %v", name, i, g.mean[i], want.mean[i])
	}
}

func FuzzCellMeans(f *testing.F) {
	f.Add(uint8(159), uint16(90), uint16(7), int64(1))
	f.Add(uint8(14), uint16(40), uint16(4), int64(2))
	f.Add(uint8(39), uint16(600), uint16(258), int64(3))
	f.Add(uint8(31), uint16(18), uint16(2), int64(4))
	var g cellStats // reused across inputs, as NN.Run reuses it across frames
	f.Fuzz(func(t *testing.T, w8 uint8, h16, px16 uint16, seed int64) {
		w, h, px := int(w8)+1, int(h16%600)+1, int(px16%320)
		fr := &frame.Frame{W: w, H: h, Y: testPlane(rand.New(rand.NewSource(seed)), w, h, int(uint64(seed)%3))}
		g.updateMeans(fr.Y, w, h, px)
		checkMeans(t, &g, refCellStats(fr, px), fmt.Sprintf("%dx%d px %d seed %d", w, h, px, seed))
	})
}

// refSNN is SNN.Run as it stood before its band sums went to vec.ColumnSums,
// kept verbatim as the oracle: each column of a band summed down the band,
// one column after another.
func refSNN(frames []*frame.Frame) (Output, Stats) {
	var out Output
	var st Stats
	var colMean, medBuf []float64 // per-band scratch reused across frames
	for _, f := range frames {
		out.PTS = append(out.PTS, f.PTS)
		st.Frames++
		st.Pixels += int64(f.NumPixels())
		st.Work += int64(f.NumPixels()) * snnWorkDepth
		var xs, ys []float64
		bandH := max(f.H/snnCellDivisor, 2)
		if cap(colMean) < f.W {
			colMean = make([]float64, f.W)
		}
		colMean = colMean[:f.W]
		for y0 := 0; y0+bandH <= f.H; y0 += bandH {
			for x := 0; x < f.W; x++ {
				var s int
				for y := y0; y < y0+bandH; y++ {
					s += int(f.Y[y*f.W+x])
				}
				colMean[x] = float64(s) / float64(bandH)
			}
			var bg float64
			bg, medBuf = medianInto(medBuf, colMean)
			minRun := max(f.W*8/100, 2) // cars are ~19% of frame width
			maxGap := max(minRun/2, 1)  // plates and roof stripes split runs
			run, gap := 0, 0
			for x := 0; x <= f.W; x++ {
				hit := false
				if x < f.W {
					d := colMean[x] - bg
					if d < 0 {
						d = -d
					}
					hit = d >= carMeanDelta
				}
				switch {
				case hit:
					run += 1 + gap
					gap = 0
				case run > 0 && gap < maxGap:
					gap++
				default:
					if run >= minRun {
						end := float64(x - gap)
						xs = append(xs, (end-float64(run)/2)/float64(f.W))
						ys = append(ys, (float64(y0)+float64(bandH)/2)/float64(f.H))
					}
					run, gap = 0, 0
				}
			}
			if run >= minRun {
				xs = append(xs, (float64(f.W)-float64(run)/2)/float64(f.W))
				ys = append(ys, (float64(y0)+float64(bandH)/2)/float64(f.H))
			}
		}
		// NoScope-style binary output: S-NN answers "does this frame
		// contain a car", not where. The paper's F1 for it is over these
		// per-frame binary labels.
		if len(xs) > 0 {
			out.Detections = append(out.Detections, Detection{PTS: f.PTS, Label: "car", X: 0.5, Y: 0.5})
		}
	}
	return out, st
}

// TestSNNMatchesReference runs S-NN and its oracle on every kernel size and
// plane kind, one frame each in one Run so the scratch is reused across
// sizes, and on 50 frames of jackson at S-NN's 0.9 binding (32×18, a car in
// every frame) and at 720p (160×90, no car in 5 of them).
func TestSNNMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var frames []*frame.Frame
	for _, d := range kernelDims {
		for kind := 0; kind < 3; kind++ {
			frames = append(frames, &frame.Frame{PTS: len(frames), W: d[0], H: d[1], Y: testPlane(rng, d[0], d[1], kind)})
		}
	}
	inputs := [][]*frame.Frame{frames}
	for _, cf := range []string{"bad-144p-1/6-100%", "best-720p-1/6-100%"} {
		fid, err := format.ParseFidelity(cf)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, renderAt(t, "jackson", 0, 300, fid))
	}
	for i, in := range inputs {
		gotOut, gotSt := SNN{}.Run(in)
		wantOut, wantSt := refSNN(in)
		if !reflect.DeepEqual(gotOut, wantOut) || gotSt != wantSt {
			t.Fatalf("input %d: output %v %+v, reference %v %+v", i, gotOut.Detections, gotSt, wantOut.Detections, wantSt)
		}
	}
}

// benchmarkRun times op on jackson's frames at its Query A binding at 0.9,
// as the derived configuration consumes them, and reports µs per frame.
func benchmarkRun(b *testing.B, op Operator, cf string) {
	fid, err := format.ParseFidelity(cf)
	if err != nil {
		b.Fatal(err)
	}
	frames := renderAt(b, "jackson", 0, 300, fid)
	b.ResetTimer()
	for range b.N {
		op.Run(frames)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(frames)), "us/frame")
}

func BenchmarkNNRun(b *testing.B)  { benchmarkRun(b, NN{}, "bad-720p-1/6-100%") }
func BenchmarkSNNRun(b *testing.B) { benchmarkRun(b, SNN{}, "bad-144p-1/6-100%") }
