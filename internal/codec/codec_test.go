package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/vidsim"
)

func testClip(t testing.TB, n int) []*frame.Frame {
	t.Helper()
	src := vidsim.NewSource(vidsim.Datasets[0])
	return src.Clip(0, n)
}

// goldenSegment encodes one segment of jackson as the golden storage format
// stores it: 160×90 at the best quality, 240 frames in one GOP, at the
// slowest speed step (flate level 9).
func goldenSegment(t testing.TB) *Encoded {
	t.Helper()
	e, _, err := Encode(testClip(t, 240), Params{Quality: format.QBest, Speed: format.SpeedSlowest, KeyframeI: 250})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// BenchmarkDecodeGolden times DecodeSampled on the golden segment at the
// samplings the benchmark's codec rung uses: every frame, a sixth and a
// thirtieth.
func BenchmarkDecodeGolden(b *testing.B) {
	e := goldenSegment(b)
	for _, s := range []format.Sampling{{Num: 1, Den: 1}, {Num: 1, Den: 6}, {Num: 1, Den: 30}} {
		keep := make([]bool, e.N)
		for _, i := range SelectPositions(e.PTSList(), s) {
			keep[i] = true
		}
		b.Run(fmt.Sprintf("%d/%d", s.Num, s.Den), func(b *testing.B) {
			b.SetBytes(int64(e.N * e.planeLen()))
			for b.Loop() {
				if _, _, err := e.DecodeSampled(func(i int) bool { return keep[i] }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// lumaPSNR returns the luma peak signal-to-noise ratio of b against reference
// a, in dB; identical planes give +Inf.
func lumaPSNR(a, b *frame.Frame) float64 {
	var se int64
	for i := range a.Y {
		d := int64(a.Y[i]) - int64(b.Y[i])
		se += d * d
	}
	return 10 * math.Log10(255*255*float64(len(a.Y))/float64(se))
}

func TestEncodeDecodeNearLossless(t *testing.T) {
	frames := testClip(t, 20)
	enc, st, err := Encode(frames, Params{Quality: format.QBest, Speed: format.SpeedMedium, KeyframeI: 5})
	if err != nil {
		t.Fatal(err)
	}
	if st.Frames != 20 {
		t.Fatalf("encoded %d frames", st.Frames)
	}
	dec, _, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(dec), len(frames))
	}
	for i := range dec {
		// Keyframes are exact at quality=best; delta frames differ only by
		// the temporal deadzone (suppressed sensor noise).
		if i%5 == 0 && !frame.Equal(dec[i], frames[i]) {
			t.Fatalf("keyframe %d not lossless at quality=best", i)
		}
		if psnr := lumaPSNR(frames[i], dec[i]); psnr < 38 {
			t.Fatalf("frame %d PSNR %.1f too low at quality=best", i, psnr)
		}
		if dec[i].PTS != frames[i].PTS {
			t.Fatalf("frame %d PTS %d want %d", i, dec[i].PTS, frames[i].PTS)
		}
	}
}

func TestLossyQualityDegradesMonotonically(t *testing.T) {
	frames := testClip(t, 10)
	prevPSNR := -1.0
	prevSize := 0
	for _, q := range format.Qualities { // poorest first
		enc, _, err := Encode(frames, Params{Quality: q, Speed: format.SpeedMedium, KeyframeI: 10})
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		var psnr float64
		for i := range dec {
			psnr += lumaPSNR(frames[i], dec[i])
		}
		psnr /= float64(len(dec))
		if psnr < prevPSNR {
			t.Fatalf("PSNR not non-decreasing with quality: %v -> %.1f (prev %.1f)", q, psnr, prevPSNR)
		}
		// Richer quality must not produce meaningfully smaller output
		// (small fluctuation tolerated).
		if enc.Size() <= 0 || enc.Size() < prevSize-prevSize/10 {
			t.Fatalf("size shrank with richer quality: %v -> %d (prev %d)", q, enc.Size(), prevSize)
		}
		prevPSNR, prevSize = psnr, enc.Size()
	}
}

func TestSpeedStepSizeTradeoff(t *testing.T) {
	frames := testClip(t, 30)
	slow, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedSlowest, KeyframeI: 10})
	if err != nil {
		t.Fatal(err)
	}
	fast, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedFastest, KeyframeI: 10})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Size() > fast.Size() {
		t.Fatalf("slowest step produced larger output (%d) than fastest (%d)", slow.Size(), fast.Size())
	}
	// Both decode identically: speed step must not change fidelity.
	ds, _, _ := slow.Decode()
	df, _, _ := fast.Decode()
	for i := range ds {
		if !frame.Equal(ds[i], df[i]) {
			t.Fatalf("speed step changed decoded pixels at frame %d", i)
		}
	}
}

func TestKeyframeIntervalSizeTradeoff(t *testing.T) {
	frames := testClip(t, 100)
	small, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: 5})
	if err != nil {
		t.Fatal(err)
	}
	large, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: 100})
	if err != nil {
		t.Fatal(err)
	}
	if small.Size() <= large.Size() {
		t.Fatalf("kf=5 size %d not larger than kf=100 size %d", small.Size(), large.Size())
	}
}

func TestDecodeSampledEqualsFullDecodePlusSampling(t *testing.T) {
	frames := testClip(t, 60)
	enc, _, err := Encode(frames, Params{Quality: format.QBad, Speed: format.SpeedFast, KeyframeI: 10})
	if err != nil {
		t.Fatal(err)
	}
	keep := func(i int) bool { return i%7 == 3 }
	sampled, _, err := enc.DecodeSampled(keep)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	var want []*frame.Frame
	for i, f := range full {
		if keep(i) {
			want = append(want, f)
		}
	}
	if len(sampled) != len(want) {
		t.Fatalf("sampled %d frames, want %d", len(sampled), len(want))
	}
	for i := range want {
		if !frame.Equal(sampled[i], want[i]) {
			t.Fatalf("sampled frame %d differs from full decode", i)
		}
	}
}

func TestDecodeSampledSkipsGOPs(t *testing.T) {
	frames := testClip(t, 100)
	enc, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Keep one frame out of 50: only 2 of the 20 GOPs should be touched.
	_, st, err := enc.DecodeSampled(func(i int) bool { return i%50 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if st.GOPsTouched != 2 {
		t.Fatalf("GOPs touched = %d, want 2", st.GOPsTouched)
	}
	if st.Frames != 2 { // frame 0 and 50 are both GOP-initial with kf=5
		t.Fatalf("frames reconstructed = %d, want 2", st.Frames)
	}
	// With a large GOP, sparse sampling must decode many more frames.
	encBig, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: 100})
	if err != nil {
		t.Fatal(err)
	}
	_, stBig, err := encBig.DecodeSampled(func(i int) bool { return i%50 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if stBig.Frames <= st.Frames {
		t.Fatalf("large GOP decoded %d frames, small GOP %d: skip-decode not effective", stBig.Frames, st.Frames)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	frames := testClip(t, 25)
	enc, _, err := Encode(frames, Params{Quality: format.QWorst, Speed: format.SpeedSlow, KeyframeI: 7})
	if err != nil {
		t.Fatal(err)
	}
	b := enc.Marshal()
	if len(b) != enc.Size() {
		t.Fatalf("Marshal length %d != Size %d", len(b), enc.Size())
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	d1, _, _ := enc.Decode()
	d2, _, err := got.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if len(d1) != len(d2) {
		t.Fatalf("round-trip frame count %d vs %d", len(d2), len(d1))
	}
	for i := range d1 {
		if !frame.Equal(d1[i], d2[i]) {
			t.Fatalf("round-trip frame %d differs", i)
		}
	}
	if got.Params != enc.Params || got.FirstPTS != enc.FirstPTS {
		t.Fatalf("round-trip header mismatch: %+v vs %+v", got.Params, enc.Params)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("nil container accepted")
	}
	if _, err := Unmarshal(make([]byte, headerSize)); err == nil {
		t.Error("bad magic accepted")
	}
	frames := testClip(t, 5)
	enc, _, _ := Encode(frames, Params{Quality: format.QBest, Speed: format.SpeedFastest, KeyframeI: 5})
	b := enc.Marshal()
	if _, err := Unmarshal(b[:len(b)-20]); err == nil {
		// The GOP index claims more payload than present.
		t.Error("truncated payload accepted")
	}
	// A container from another node is parsed here too, so a GOP index that
	// does not tile [0, N) — which would hand decode positions past the PTS
	// table — or a plane size no payload could inflate to must fail
	// Unmarshal, not panic or allocate later.
	one, _, err := Encode(testClip(t, 2), Params{Quality: format.QGood, Speed: format.SpeedFastest, KeyframeI: 5})
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := Encode(testClip(t, 4), Params{Quality: format.QGood, Speed: format.SpeedFastest, KeyframeI: 2})
	if err != nil {
		t.Fatal(err)
	}
	gopField := func(gop, off int) int { return headerSize + gop*gopEntrySize + off }
	for _, c := range []struct {
		name string
		enc  *Encoded
		edit func(b []byte)
	}{
		{"GOP frames past N", one, func(b []byte) { binary.BigEndian.PutUint32(b[gopField(0, 4):], 9) }},
		{"GOP frames short of N", one, func(b []byte) { binary.BigEndian.PutUint32(b[gopField(0, 4):], 1) }},
		{"empty GOP", two, func(b []byte) { binary.BigEndian.PutUint32(b[gopField(0, 4):], 0) }},
		{"first GOP not at 0", one, func(b []byte) { binary.BigEndian.PutUint32(b[gopField(0, 0):], 1) }},
		{"GOPs out of order", two, func(b []byte) { binary.BigEndian.PutUint32(b[gopField(1, 0):], 0) }},
		{"GOP offset wraps", two, func(b []byte) { binary.BigEndian.PutUint64(b[gopField(1, 8):], math.MaxUint64) }},
		{"plane no payload inflates to", one, func(b []byte) {
			binary.BigEndian.PutUint16(b[4:], math.MaxUint16)
			binary.BigEndian.PutUint16(b[6:], math.MaxUint16)
		}},
	} {
		b := c.enc.Marshal()
		if _, err := Unmarshal(b); err != nil {
			t.Fatalf("%s: the unedited container is rejected: %v", c.name, err)
		}
		c.edit(b)
		if _, err := Unmarshal(b); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	if _, _, err := Encode(nil, Params{KeyframeI: 5}); err == nil {
		t.Error("empty encode accepted")
	}
	f := frame.New(16, 16)
	if _, _, err := Encode([]*frame.Frame{f}, Params{KeyframeI: 0}); err == nil {
		t.Error("keyframe interval 0 accepted")
	}
	g := frame.New(8, 8)
	if _, _, err := Encode([]*frame.Frame{f, g}, Params{KeyframeI: 5}); err == nil {
		t.Error("mismatched dimensions accepted")
	}
}

func TestApplyFidelityFullRate(t *testing.T) {
	frames := testClip(t, 60)
	fid := format.Fidelity{Quality: format.QBest, Crop: format.Crop50, Res: 180, Sampling: format.Sampling{Num: 1, Den: 2}}
	tw, th := vidsim.Dims(fid.Res)
	out := ApplyFidelity(frames, fid, tw, th)
	if len(out) != 30 {
		t.Fatalf("sampled %d frames, want 30", len(out))
	}
	for _, f := range out {
		if f.W > tw || f.H > th {
			t.Fatalf("frame %dx%d exceeds target %dx%d", f.W, f.H, tw, th)
		}
	}
	// Crop halves each dimension (subject to even rounding).
	if out[0].W > tw/2+1 || out[0].H > th/2+1 {
		t.Fatalf("crop not applied: %dx%d", out[0].W, out[0].H)
	}
}

func TestSampleTimelineNested(t *testing.T) {
	frames := testClip(t, 120)
	// Pre-sample at 1/6, then request 1/30: kept sets nest, so the result
	// must be exactly the 1/30 frames.
	pre := SampleTimeline(frames, format.Sampling{Num: 1, Den: 6})
	out := SampleTimeline(pre, format.Sampling{Num: 1, Den: 30})
	if len(out) != 4 {
		t.Fatalf("got %d frames, want 4", len(out))
	}
	for _, f := range out {
		if !(format.Sampling{Num: 1, Den: 30}).Keep(f.PTS) {
			t.Fatalf("frame PTS %d is not a 1/30 keeper", f.PTS)
		}
	}
}

func TestSampleTimelineNonNested(t *testing.T) {
	frames := testClip(t, 120)
	// 2/3 storage serving a 1/2 consumer: the kept sets do not nest; the
	// resample must still deliver the right density without duplicates.
	pre := SampleTimeline(frames, format.Sampling{Num: 2, Den: 3})
	out := SampleTimeline(pre, format.Sampling{Num: 1, Den: 2})
	if len(out) < 55 || len(out) > 60 {
		t.Fatalf("got %d frames, want about 60", len(out))
	}
	seen := map[int]bool{}
	lastPTS := -1
	for _, f := range out {
		if seen[f.PTS] {
			t.Fatalf("frame PTS %d selected twice", f.PTS)
		}
		seen[f.PTS] = true
		if f.PTS <= lastPTS {
			t.Fatalf("PTS not increasing: %d after %d", f.PTS, lastPTS)
		}
		lastPTS = f.PTS
	}
}

// Property: for random clips and random parameters, decode(encode(x)) keeps
// frame count and dimensions, and at quality=best is lossless.
func TestEncodeDecodeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	src := vidsim.NewSource(vidsim.Datasets[3])
	for trial := 0; trial < 8; trial++ {
		n := 3 + r.Intn(40)
		start := r.Intn(1000)
		frames := src.Clip(start, n)
		p := Params{
			Quality:   format.Qualities[r.Intn(len(format.Qualities))],
			Speed:     format.SpeedSteps[r.Intn(len(format.SpeedSteps))],
			KeyframeI: format.KeyframeIntervals[r.Intn(len(format.KeyframeIntervals))],
		}
		enc, _, err := Encode(frames, p)
		if err != nil {
			t.Fatal(err)
		}
		dec, _, err := enc.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != n {
			t.Fatalf("trial %d: decoded %d frames, want %d", trial, len(dec), n)
		}
		for i := range dec {
			if dec[i].W != frames[i].W || dec[i].H != frames[i].H {
				t.Fatalf("trial %d: dims changed", trial)
			}
			if p.Quality == format.QBest {
				if psnr := lumaPSNR(frames[i], dec[i]); psnr < 35 {
					t.Fatalf("trial %d: best-quality PSNR %.1f", trial, psnr)
				}
			}
		}
	}
}

func TestCompressionIsEffective(t *testing.T) {
	frames := testClip(t, 60)
	raw := 0
	for _, f := range frames {
		raw += f.Bytes()
	}
	enc, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedSlowest, KeyframeI: 50})
	if err != nil {
		t.Fatal(err)
	}
	// With the temporal deadzone the codec must approach real-codec
	// compression on a static-camera scene (the paper's regime is ~30x).
	if ratio := float64(raw) / float64(enc.Size()); ratio < 8 {
		t.Fatalf("compression ratio %.1fx too weak for a static-camera scene", ratio)
	}
}

// FuzzUnmarshal: whatever bytes arrive, Unmarshal rejects them or decode —
// with a keep that reads the PTS table, as retrieval's does — returns an
// error or frames. Nothing panics.
func FuzzUnmarshal(f *testing.F) {
	var frames []*frame.Frame
	for _, fr := range testClip(f, 3) {
		frames = append(frames, fr.Downscale(32, 18))
	}
	enc, _, err := Encode(frames, Params{Quality: format.QGood, Speed: format.SpeedMedium, KeyframeI: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc.Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Unmarshal(b)
		if err != nil {
			return
		}
		got, _, err := e.DecodeSampled(func(i int) bool { return e.PTSAt(i)%2 == 0 })
		if err == nil && len(got) > e.N {
			t.Fatalf("decoded %d frames from a container of %d", len(got), e.N)
		}
	})
}
