package codec

import (
	"bytes"
	"testing"

	"repro/internal/format"
	"repro/internal/frame"
	"repro/internal/sched"
)

func encodeClip(t testing.TB, frames []*frame.Frame, p Params) *Encoded {
	t.Helper()
	enc, _, err := Encode(frames, p)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

var poolTestParams = Params{Quality: format.QGood, Speed: format.SpeedFast, KeyframeI: 10}

// TestEncodePoolingByteIdentical proves the pooled encoder (a compressor
// reset for every GOP, pooled plane and GOP scratch) emits the exact container
// bytes of the pooling-free encoder.
func TestEncodePoolingByteIdentical(t *testing.T) {
	frames := testClip(t, 60)
	prev := SetPooling(false)
	defer SetPooling(prev)
	cold, coldSt, err := Encode(frames, poolTestParams)
	if err != nil {
		t.Fatal(err)
	}
	SetPooling(true)
	// Two pooled encodes: the second runs on recycled scratch.
	for pass := 0; pass < 2; pass++ {
		enc, st, err := Encode(frames, poolTestParams)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Marshal(), cold.Marshal()) {
			t.Fatalf("pass %d: pooled encode bytes differ from pooling-free encode", pass)
		}
		if st != coldSt {
			t.Fatalf("pass %d: pooled encode stats %+v != %+v", pass, st, coldSt)
		}
	}
}

// TestDecodePoolingByteIdentical proves pooled decode scratch never leaks
// into output: decodes with pooling on (twice, so the second rides
// recycled buffers) match a pooling-free decode frame for frame.
func TestDecodePoolingByteIdentical(t *testing.T) {
	enc := encodeClip(t, testClip(t, 60), poolTestParams)
	keep := func(i int) bool { return i%3 != 1 }
	prev := SetPooling(false)
	defer SetPooling(prev)
	ref, refSt, err := enc.DecodeSampled(keep)
	if err != nil {
		t.Fatal(err)
	}
	SetPooling(true)
	for pass := 0; pass < 2; pass++ {
		got, st, err := enc.DecodeSampled(keep)
		if err != nil {
			t.Fatal(err)
		}
		if st != refSt {
			t.Fatalf("pass %d: stats %+v != %+v", pass, st, refSt)
		}
		assertSameFrames(t, got, ref)
	}
}

// TestDecodeSampledParallelMatchesSequential fans GOP decode across pools
// of 1, 2 and 8 workers and asserts frames and Stats are identical to the
// sequential decode — the engine's byte-identical-at-any-worker-count
// invariant, at the codec layer.
func TestDecodeSampledParallelMatchesSequential(t *testing.T) {
	enc := encodeClip(t, testClip(t, 120), poolTestParams)
	for _, tc := range []struct {
		name string
		keep func(int) bool
	}{
		{"all", func(int) bool { return true }},
		{"sparse", func(i int) bool { return i%30 == 7 }},
		{"span", func(i int) bool { return i >= 35 && i < 80 }},
	} {
		ref, refSt, err := enc.DecodeSampled(tc.keep)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			pool := sched.NewPool(workers)
			got, st, err := enc.DecodeSampledParallel(tc.keep, pool)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, workers, err)
			}
			if st != refSt {
				t.Fatalf("%s workers=%d: stats %+v != sequential %+v", tc.name, workers, st, refSt)
			}
			assertSameFrames(t, got, ref)
		}
	}
}

// TestDecodeOutputsIndependent proves a decode's delivered frames do not
// alias pooled scratch: mutating one decode's output leaves a subsequent
// decode pristine.
func TestDecodeOutputsIndependent(t *testing.T) {
	enc := encodeClip(t, testClip(t, 40), poolTestParams)
	first, _, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range first {
		for i := range f.Y {
			f.Y[i] = 0xAB
		}
		for i := range f.Cb {
			f.Cb[i] = 0xCD
		}
	}
	again, _, err := enc.Decode()
	if err != nil {
		t.Fatal(err)
	}
	assertSameFrames(t, again, ref)
}

func assertSameFrames(t *testing.T, got, want []*frame.Frame) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d frames, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].PTS != want[i].PTS {
			t.Fatalf("frame %d: PTS %d != %d", i, got[i].PTS, want[i].PTS)
		}
		if !frame.Equal(got[i], want[i]) {
			t.Fatalf("frame %d (pts %d): pixels differ", i, got[i].PTS)
		}
	}
}

// TestSelectPositionsFuncMatchesSlice pins the index-based variant to the
// slice-based one across sampling rates.
func TestSelectPositionsFuncMatchesSlice(t *testing.T) {
	pts := []int{0, 3, 6, 9, 12, 17, 21, 22, 30, 44, 45}
	for _, s := range []format.Sampling{{Num: 1, Den: 1}, {Num: 1, Den: 2}, {Num: 1, Den: 6}, {Num: 1, Den: 30}} {
		want := SelectPositions(pts, s)
		got := SelectPositionsFunc(len(pts), func(i int) int { return pts[i] }, s)
		if len(got) != len(want) {
			t.Fatalf("sampling %v: got %v, want %v", s, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("sampling %v: got %v, want %v", s, got, want)
			}
		}
	}
}
