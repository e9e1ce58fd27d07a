package codec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/sched"
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

// BenchmarkEncodeGolden times Encode of the golden segment's 240 frames
// (one GOP) at every speed step, so at every flate level the codec uses,
// and EncodeWith the same with helpers: a pool of the cores beside the
// encode's own, and at least one, so that -cpu 1 times what lending
// helpers costs and -cpu 2 what it gains. Each reports the compressed bytes
// per GOP (B/GOP) beside its time, so one line shows both sides of a codec
// change.
func BenchmarkEncodeGolden(b *testing.B) {
	frames := testClip(b, 240)
	pool := sched.NewPool(max(runtime.GOMAXPROCS(0)-1, 1))
	for _, s := range format.SpeedSteps {
		for _, split := range []bool{false, true} {
			name := fmt.Sprintf("%s/level%d", s, s.FlateLevel())
			if split {
				name += "/helpers"
			}
			b.Run(name, func(b *testing.B) {
				p := Params{Quality: format.QBest, Speed: s, KeyframeI: 250}
				b.SetBytes(int64(len(frames) * (frames[0].W*frames[0].H + 2*(frames[0].W/2)*(frames[0].H/2))))
				var h Helpers
				if split {
					h = pool.Batch()
				}
				var e *Encoded
				for b.Loop() {
					var err error
					if e, _, err = EncodeWith(frames, p, h); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(e.Data))/float64(len(e.gops)), "B/GOP")
			})
		}
	}
}

// TestEncodeWithHelpers: EncodeWith gives Encode's bytes with helpers on a
// pool, and when it returns every slot of that pool is free again.
func TestEncodeWithHelpers(t *testing.T) {
	frames := testClip(t, 240)
	p := Params{Quality: format.QBest, Speed: format.SpeedSlowest, KeyframeI: 250}
	want, _, err := Encode(frames, p)
	if err != nil {
		t.Fatal(err)
	}
	pool := sched.NewPool(3)
	h := &countingHelpers{Batch: pool.Batch()}
	got, _, err := EncodeWith(frames, p, h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), want.Marshal()) {
		t.Fatal("EncodeWith's container differs from Encode's")
	}
	if h.started.Load() == 0 {
		t.Fatal("no helper started on a free pool")
	}
	b := pool.Batch()
	hold := make(chan struct{})
	for i := range pool.Workers() {
		if !b.TryGo(func() { <-hold }) {
			t.Fatalf("slot %d of %d still held after EncodeWith returned", i+1, pool.Workers())
		}
	}
	close(hold)
	b.Wait()
}

// encodePins are the SHA-256 sums of Encode's containers for four scenes'
// golden GOPs (goldenGOP's frames, one GOP), at the best quality and at a
// lossy one, by speed step from slowest to fastest. They were recorded
// before the chain walk's run jump, the deadzone kernel and the linking of
// runs, all of which must leave every byte as it was; the fastest step's
// were re-recorded when level 1 began to cut its blocks by token count.
var encodePins = map[string][2][5]string{
	"jackson": {
		{ // best
			"7cfbf2aa205c55fa69b7630ab426b1c4a4067b3218259d9c107e4d835752445b",
			"4f60a035951639974d4104911278d8a6980d40eadbb4b43dd220fb509dc546e9",
			"844e3121639a2545cd3ddb80553013a39ac5120e7737f3bf9ef199eec0df5a6b",
			"82847d94dca24e5cf9161d32dccacbc252ea43a2e30efe0cdf87162d9243ca7a",
			"81adb3f7c2088c4fdbbe2bf75bafbec5f7e722aa09ed1b78b3aa2b67aef85b4c",
		},
		{ // bad
			"ce9f953c2ffb81aeb51db14698040285942742352bfd307e607fce6d4ed7ac9b",
			"86ecd9369f960886acd6b9aa99ace1a410ce7ea0fb20840f27c20ea0eea9b508",
			"748d0638625996fcc5d8c8e43785cbd6b486722c92b941a9a546fac28f2c28e9",
			"6047bd1ec34ea15fc9d05abda91b712121a80c57c4b28d517e52ca96c877055f",
			"0d5131c4657200f61f71ece0f739351116517a67f2ea99c21d294f5b8f80555e",
		},
	},
	"tucson": {
		{ // best
			"11ecc4074461466527d69fbd6210f75085687cf6b7120e674f3f2733ea92402e",
			"f2ae1bcef032c7a465663f4e27cbcd0f7292adee80a05afd4b93d198b58aa53e",
			"aee27c6849b5c15ef561d2a9683f2c42d8b1d4c77a7fc73532826be116b6fe5a",
			"aeeaeb483f3ad2589a00da6003f436a6be67b6ad6e39320ca9cff2cca189c654",
			"c7f342b0ce90b9fe5a55cdd91adad57e4f86b1bb5d29baccf7c5393755b16531",
		},
		{ // bad
			"c37afcda30ab7c4a130900fbc1aa96853e95d6f35ae9b6ea681eab30295893a4",
			"05c6cf9f78fda9891a3f822b76c6214aef3b03d4db830857fe7522ce4f21c883",
			"85dccd04eafaa95660dba28ff9c6ca0bec87ccaa2fd7fa91bbc62bede1794970",
			"5ffa8e92d7a4866f59a7d294c33cfdacd9930cf51820b2dc220ad27955e25175",
			"7c60cf377aff0c05a86909f2a9a2be21857e57ec18b2bc95e5bd7d7158fc5ca9",
		},
	},
	"park": {
		{ // best
			"bdc22d0eb7fc67fdbe09513ce90020cd74a071b814112cbda05cd0870104e1bb",
			"a1c91c8906b34c4a90a87e9910310924a52e85b84be424d947d822e35121b439",
			"5f90c28e78eae764ad5388a532360362c0c17abe4f0657e6ffa4308879b7d857",
			"95c01a2295a3268ab264c3050d2e9e7fb0d9eb8f9921fe6309b510b8ea371166",
			"f212b75bc02421046ede55f717143d53320318dad3ad1983524f19638c9e6634",
		},
		{ // bad
			"49ed4807a5e1ca069c3e2a141bf4fc0bada472ef2a9e048812464b5df31610f8",
			"9b80dbe6089b7a8bb9ad7dea1fce2947234b719b52bf2f4f9455fd3cebb35dd7",
			"5284e86b399d4698ff8acaaaa064165531e5ed222d06deea213c98e1a2a789d8",
			"4510512f33e02512beec8a2751f277fbc584aed28d62a23923dd3b0631e03906",
			"e74cb7b33bb8235ddd8fdbc86f658efadd6f54965c87436d89a69b816a4c38b5",
		},
	},
	"airport": {
		{ // best
			"6fb448800e9930e18997c17365ff0b0d32769ad449977b00e43d2cb4dfb1cd2b",
			"ed81f7f3ff118687c3162ac43878b00ac49be24423225df07212dd40a19d7a97",
			"44c8be1133d3f293d8e2211a906d9d9a6a8f25801cbcae50f0274b78284cda33",
			"d2b823fd1db58e997c35bc1ccbda3c7c749354ae8da2875dc885365a7f8083a4",
			"1452180400ab429e59163028defb35958adadf028d1227942bbe071d6b20a72b",
		},
		{ // bad
			"ed842a9a681ab6ac1a86ef1677e6ec8934f8fe6e94801cf0c2d54150344043c8",
			"130a6249c02ac61954029cf837680e46798bfdc0f91e894e8c9ca9191934201c",
			"4dfa6c903807ceba098e2d5033a500df8710e640884d3a9f8c55f3891af4383d",
			"d14153f334e47dfe5be5e4fed2f2765cad75442d470803d7d6165bca2a17222f",
			"895779258ccb928a1053e8a9ab45db374e540d279bf4e2374c73680e9d578d92",
		},
	},
}

// TestEncodeBytesPinned holds Encode's container bytes to encodePins, and
// EncodeWith's on a 3-slot pool to the same.
func TestEncodeBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("forty golden-GOP encodes, twice")
	}
	pool := sched.NewPool(3)
	for name, pins := range encodePins {
		scene, err := vidsim.DatasetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		frames := vidsim.NewSource(scene).Clip(0, 240)
		for qi, q := range []format.Quality{format.QBest, format.QBad} {
			for si, s := range format.SpeedSteps {
				p := Params{Quality: q, Speed: s, KeyframeI: 250}
				for _, h := range []Helpers{nil, pool.Batch()} {
					e, _, err := EncodeWith(frames, p, h)
					if err != nil {
						t.Fatal(err)
					}
					if got := fmt.Sprintf("%x", sha256.Sum256(e.Marshal())); got != pins[qi][si] {
						t.Errorf("%s %v %v (helpers %t): container sha256 %s, pinned %s", name, q, s, h != nil, got, pins[qi][si])
					}
				}
			}
		}
	}
}

// countingHelpers counts the helpers a Batch starts.
type countingHelpers struct {
	*sched.Batch
	started atomic.Int64
}

func (c *countingHelpers) TryGo(fn func()) bool {
	ok := c.Batch.TryGo(fn)
	if ok {
		c.started.Add(1)
	}
	return ok
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

// TestFlateStreamsStillDecode: every store written while the compressor
// copied compress/flate's writer holds that writer's streams. A container
// whose GOPs hold flate.NewWriter's stream over the same staged bytes must
// decode, in sequence and in parallel, to the frames the compressor's own
// container decodes to, at every level the codec uses.
func TestFlateStreamsStillDecode(t *testing.T) {
	frames := testClip(t, 60)
	keep := func(i int) bool { return i%7 != 3 }
	differs := false
	for _, s := range format.SpeedSteps {
		e, _, err := Encode(frames, Params{Quality: format.QGood, Speed: s, KeyframeI: 25})
		if err != nil {
			t.Fatal(err)
		}
		old := *e
		old.Data, old.gops = nil, slices.Clone(e.gops)
		for i, g := range e.gops {
			staged := make([]byte, int(g.frames)*e.planeLen())
			if _, err := inflate(staged, e.Data[g.off:g.off+g.length]); err != nil {
				t.Fatal(err)
			}
			off := len(old.Data)
			old.Data = append(old.Data, deflate(t, staged, s.FlateLevel())...)
			old.gops[i].off, old.gops[i].length = uint64(off), uint64(len(old.Data)-off)
		}
		differs = differs || !bytes.Equal(old.Data, e.Data)
		want, _, err := e.DecodeSampled(keep)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := old.DecodeSampled(keep)
		if err != nil {
			t.Fatalf("level %d: %v", s.FlateLevel(), err)
		}
		assertSameFrames(t, got, want)
		got, _, err = old.DecodeSampledParallel(keep, sched.NewPool(2))
		if err != nil {
			t.Fatalf("level %d, parallel: %v", s.FlateLevel(), err)
		}
		assertSameFrames(t, got, want)
	}
	if !differs {
		t.Fatal("flate's streams equal the compressor's at every level: nothing was checked")
	}
}
